// Package httpapi exposes the KRISP library over HTTP as a small
// control-plane API: list workloads, fetch kernel profiles, run serving
// simulations, and regenerate paper experiments. It is the integration
// surface cmd/krisp-httpd serves and is fully exercisable with httptest.
//
//	GET  /v1/models                         workload inventory
//	GET  /v1/profile?model=albert&batch=32  per-kernel minCU profile
//	POST /v1/simulate                       run one serving scenario
//	GET  /v1/experiments                    list experiment ids
//	GET  /v1/experiments/{id}?quick=1       regenerate one experiment
//	GET  /v1/chaos                          list fleet chaos scenarios
package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"krisp/internal/bench"
	"krisp/internal/cluster"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/profile"
	"krisp/internal/server"
	"krisp/internal/telemetry"
)

// Handler returns the API router.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", handleModels)
	mux.HandleFunc("GET /v1/profile", handleProfile)
	mux.HandleFunc("POST /v1/simulate", handleSimulate)
	mux.HandleFunc("GET /v1/experiments", handleExperimentList)
	mux.HandleFunc("GET /v1/experiments/{id}", handleExperiment)
	mux.HandleFunc("GET /v1/chaos", handleChaosList)
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("GET /debug/telemetry", handleTelemetryDebug)
	mux.HandleFunc("GET /debug/slo", handleSLO)
	mux.HandleFunc("GET /debug/flight", handleFlight)
	return mux
}

// jsonSafe maps the NaN that server.Result.MaxP95 reports for degenerate
// runs (no batches measured) to 0 — JSON has no NaN, and for this API a
// zero P95 already means "no data".
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ModelInfo is one row of GET /v1/models.
type ModelInfo struct {
	Name      string  `json:"name"`
	Kernels   int     `json:"kernels"`
	RightSize int     `json:"right_size_cus"`
	PaperP95  float64 `json:"paper_p95_ms"`
}

func handleModels(w http.ResponseWriter, r *http.Request) {
	out := make([]ModelInfo, 0, len(models.All()))
	for _, m := range models.All() {
		out = append(out, ModelInfo{
			Name:      m.Name,
			Kernels:   len(m.Sequence(models.CalibrationBatch)),
			RightSize: m.RightSize(profile.DefaultConfig(), models.CalibrationBatch),
			PaperP95:  m.PaperP95Ms,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func handleProfile(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("model")
	m, ok := models.ByName(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q (available: %s)",
			name, strings.Join(models.Names(), ", "))
		return
	}
	batch := models.CalibrationBatch
	if b := r.URL.Query().Get("batch"); b != "" {
		v, err := strconv.Atoi(b)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "invalid batch %q", b)
			return
		}
		batch = v
	}
	writeJSON(w, http.StatusOK, m.DB(profile.DefaultConfig(), batch).Entries())
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	Model      string  `json:"model"`
	Policy     string  `json:"policy"`
	Workers    int     `json:"workers"`
	Batch      int     `json:"batch"`
	Seed       int64   `json:"seed"`
	Quick      bool    `json:"quick"`
	RatePerSec float64 `json:"rate_per_sec"` // >0 switches to open-loop arrivals
}

// SimulateResponse summarizes one simulation.
type SimulateResponse struct {
	Policy             string  `json:"policy"`
	Workers            int     `json:"workers"`
	RPS                float64 `json:"rps"`
	P95Ms              float64 `json:"p95_ms"`
	EnergyPerInference float64 `json:"energy_per_inference_j"`
	AvgBusyCUs         float64 `json:"avg_busy_cus"`
	Oversubscribed     bool    `json:"oversubscribed,omitempty"`
	// Open-loop only:
	OfferedRPS   float64 `json:"offered_rps,omitempty"`
	CompletedRPS float64 `json:"completed_rps,omitempty"`
	RequestP95Ms float64 `json:"request_p95_ms,omitempty"`
}

func handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid body: %v", err)
		return
	}
	m, ok := models.ByName(req.Model)
	if !ok {
		// A bad name in a POSTed body is a malformed request, not a missing
		// resource: 400, and the message names the valid choices.
		writeError(w, http.StatusBadRequest, "unknown model %q (available: %s)",
			req.Model, strings.Join(models.Names(), ", "))
		return
	}
	kind, err := policies.ByName(req.Policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v (available: %s)", err, policyNames())
		return
	}
	if req.Workers < 1 || req.Workers > 16 {
		writeError(w, http.StatusBadRequest, "workers must be in [1,16], got %d", req.Workers)
		return
	}
	if req.Batch == 0 {
		req.Batch = models.CalibrationBatch
	}
	if req.Batch < 1 || req.Batch > 256 {
		writeError(w, http.StatusBadRequest, "batch must be in [1,256], got %d", req.Batch)
		return
	}
	if req.RatePerSec < 0 {
		writeError(w, http.StatusBadRequest, "rate_per_sec must be >= 0, got %v", req.RatePerSec)
		return
	}

	specs := make([]server.WorkerSpec, req.Workers)
	for i := range specs {
		specs[i] = server.WorkerSpec{Model: m, Batch: req.Batch}
	}
	cfg := server.Config{
		Policy:  kind,
		Workers: specs,
		Seed:    req.Seed,
		// The simulation runs on this goroutine for up to several wall
		// seconds; honoring the request context lets a disconnecting client
		// abandon it instead of burning the server.
		Ctx: r.Context(),
		// Feed the process-wide registry so GET /metrics sees this run live.
		Telemetry: telemetry.DefaultHub(),
	}
	if req.Quick {
		cfg.MeasureScale = 0.25
	}

	resp := SimulateResponse{Policy: kind.String(), Workers: req.Workers}
	if req.RatePerSec > 0 {
		res := server.RunOpenLoop(cfg, server.Arrival{RatePerSec: req.RatePerSec})
		if res.Interrupted {
			writeError(w, http.StatusRequestTimeout, "simulation aborted: request canceled")
			return
		}
		resp.RPS = res.RPS
		resp.P95Ms = jsonSafe(res.MaxP95() / 1000)
		resp.EnergyPerInference = res.EnergyPerInference
		resp.AvgBusyCUs = res.AvgBusyCUs
		resp.OfferedRPS = res.Offered
		resp.CompletedRPS = res.Completed
		resp.RequestP95Ms = res.RequestLatency.P95() / 1000
	} else {
		res := server.Run(cfg)
		if res.Interrupted {
			writeError(w, http.StatusRequestTimeout, "simulation aborted: request canceled")
			return
		}
		resp.RPS = res.RPS
		resp.P95Ms = jsonSafe(res.MaxP95() / 1000)
		resp.EnergyPerInference = res.EnergyPerInference
		resp.AvgBusyCUs = res.AvgBusyCUs
		resp.Oversubscribed = res.Oversubscribed
	}
	writeJSON(w, http.StatusOK, resp)
}

// policyNames lists the accepted policy spellings for error messages.
func policyNames() string {
	all := policies.All()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.String()
	}
	return strings.Join(names, ", ")
}

func handleExperimentList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, bench.Experiments())
}

// ChaosInfo is one row of GET /v1/chaos — a fleet chaos scenario the
// cluster simulator (and cmd/krisp-cluster -chaos) can run.
type ChaosInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func handleChaosList(w http.ResponseWriter, r *http.Request) {
	out := []ChaosInfo{}
	for _, s := range cluster.ChaosScenarios() {
		out = append(out, ChaosInfo{Name: s.Name, Description: s.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	known := false
	for _, e := range bench.Experiments() {
		if e == id {
			known = true
			break
		}
	}
	if !known {
		writeError(w, http.StatusNotFound, "unknown experiment %q", id)
		return
	}
	quick := r.URL.Query().Get("quick") != "0"
	h := bench.New(bench.Options{Seed: 42, Quick: quick})
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := h.Run(id, w); err != nil {
		// Headers already sent; append the error in text.
		fmt.Fprintf(w, "\nerror: %v\n", err)
	}
}
