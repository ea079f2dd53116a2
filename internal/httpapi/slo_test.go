package httpapi

import (
	"encoding/json"
	"net/http"
	"testing"

	"krisp/internal/cluster"
	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
	"krisp/internal/models"
	"krisp/internal/reconfig"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// runObservedFleet drives a small fleet on the default telemetry hub with
// journey sampling and SLO monitors on, so the run publishes to the
// process-wide SLO board and flight recorder the debug endpoints serve.
func runObservedFleet(t *testing.T) {
	t.Helper()
	m, ok := models.ByName("squeezenet")
	if !ok {
		t.Fatal("squeezenet not found")
	}
	cfg := cluster.Config{
		Nodes:       2,
		GPUsPerNode: 2,
		Workloads: []cluster.Workload{
			{Model: m, Batch: 8, Gen: workload.Constant{RatePerSec: 2600}},
		},
		Tick:     2 * sim.Millisecond,
		Epoch:    50 * sim.Millisecond,
		Duration: 100 * sim.Millisecond,
		Seed:     7,
		Costs: reconfig.Costs{
			PartitionSetup: 2 * sim.Millisecond,
			ProcessStart:   3 * sim.Millisecond,
			ModelLoad:      10 * sim.Millisecond,
			SwapDowntime:   55 * sim.Microsecond,
		},
		Policy:    cluster.SLOAware,
		Gateway:   &gateway.Config{},
		Telemetry: telemetry.DefaultHub(),
		Obs:       &cluster.Observability{SampleEvery: 1, Monitors: true, FlightCap: 64},
	}
	if res := cluster.Run(cfg); res.Completed == 0 {
		t.Fatal("observed fleet completed nothing")
	}
}

func TestSLOEndpoint(t *testing.T) {
	runObservedFleet(t)
	rec := get(t, "/debug/slo")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slo status %d: %s", rec.Code, rec.Body)
	}
	var statuses []telemetry.SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &statuses); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(statuses) == 0 {
		t.Fatal("no SLO statuses published")
	}
	found := false
	for _, s := range statuses {
		if s.Name == "squeezenet" {
			found = true
			if s.State == "" || s.Total == 0 {
				t.Fatalf("empty status: %+v", s)
			}
		}
	}
	if !found {
		t.Fatalf("no monitor for squeezenet in %+v", statuses)
	}
}

func TestFlightEndpoint(t *testing.T) {
	runObservedFleet(t)
	rec := get(t, "/debug/flight")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/flight status %d: %s", rec.Code, rec.Body)
	}
	var dump struct {
		Retained int    `json:"retained"`
		Total    uint64 `json:"total"`
		Journeys []struct {
			Model   string           `json:"model"`
			Outcome string           `json:"outcome"`
			Stages  map[string]int64 `json:"stages"`
		} `json:"journeys"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if dump.Retained != len(dump.Journeys) {
		t.Fatalf("retained %d != %d journeys", dump.Retained, len(dump.Journeys))
	}

	tr := get(t, "/debug/flight?format=trace")
	if tr.Code != http.StatusOK {
		t.Fatalf("trace format status %d: %s", tr.Code, tr.Body)
	}
	var events struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Body.Bytes(), &events); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}

	if rec := get(t, "/debug/flight?format=nope"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad format status %d, want 400", rec.Code)
	}
}
