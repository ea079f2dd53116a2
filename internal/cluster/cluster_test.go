package cluster

import (
	"fmt"
	"strings"
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
	"krisp/internal/faults"
	"krisp/internal/models"
	"krisp/internal/reconfig"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

func pick(t *testing.T, name string) models.Model {
	t.Helper()
	m, ok := models.ByName(name)
	if !ok {
		t.Fatalf("model %s not found", name)
	}
	return m
}

// compressedCosts scales reconfiguration to the compressed timescale the
// tests simulate (tens of milliseconds per epoch instead of tens of
// seconds).
func compressedCosts() reconfig.Costs {
	return reconfig.Costs{
		PartitionSetup: 2 * sim.Millisecond,
		ProcessStart:   3 * sim.Millisecond,
		ModelLoad:      10 * sim.Millisecond,
		SwapDowntime:   55 * sim.Microsecond,
	}
}

func baseConfig(t *testing.T) Config {
	return Config{
		Nodes:       3,
		GPUsPerNode: 2,
		Workloads: []Workload{
			{
				Model: pick(t, "squeezenet"),
				Batch: 8,
				Gen: workload.Diurnal{
					Trough: 800, Peak: 5000, Period: 300 * sim.Millisecond,
				},
			},
			{
				Model: pick(t, "mobilenet"),
				Batch: 8,
				Gen:   workload.Constant{RatePerSec: 1200},
			},
		},
		Tick:     2 * sim.Millisecond,
		Epoch:    50 * sim.Millisecond,
		Duration: 300 * sim.Millisecond,
		Seed:     42,
		Costs:    compressedCosts(),
	}
}

func TestFleetSmoke(t *testing.T) {
	res := Run(baseConfig(t))
	if res.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if res.Epochs != 6 {
		t.Fatalf("epochs = %d, want 6", res.Epochs)
	}
	if res.Routed > res.Arrivals {
		t.Fatalf("routed %d > arrivals %d", res.Routed, res.Arrivals)
	}
	// Conservation: every arrival is routed or rejected.
	if got := res.Routed + res.Rejected; got != res.Arrivals {
		t.Fatalf("routed(%d)+rejected(%d) = %d, want arrivals %d",
			res.Routed, res.Rejected, got, res.Arrivals)
	}
	// Routed requests complete, fail with a node fault, or are still in
	// flight at the horizon; without faults, completed <= routed.
	if res.Completed > res.Routed {
		t.Fatalf("completed %d > routed %d", res.Completed, res.Routed)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d with no node faults", res.Failed)
	}
	if res.Latency.Len() != res.Completed {
		t.Fatalf("latency samples %d != completed %d", res.Latency.Len(), res.Completed)
	}
	if res.EnergyJ <= 0 {
		t.Fatal("no energy accounted")
	}
	if len(res.PerModel) != 2 {
		t.Fatalf("per-model results = %d, want 2", len(res.PerModel))
	}
	// The diurnal trace must force at least one replan that changes the
	// squeezenet replica set.
	if res.Resizes+res.Migrations+res.Drains == 0 {
		t.Fatal("autoscaler never changed the placement across a diurnal trace")
	}
	// Kernel-scoped reconfiguration must be strictly cheaper than the
	// process-scoped counterfactual whenever anything was resized.
	if res.Resizes > 0 && res.KernelScopedReload >= res.ProcessScopedReload {
		t.Fatalf("kernel-scoped bill %v not below process-scoped %v",
			res.KernelScopedReload, res.ProcessScopedReload)
	}
}

// TestSLOAwareBeatsRoundRobin is the acceptance scenario: a diurnal trace
// over 3 nodes x 2 GPUs with one degraded GPU. The SLO-aware policy must
// observe the inflated tail on the slow replicas and steer around them,
// ending with fewer rejected + SLO-violating requests than round-robin.
func TestSLOAwareBeatsRoundRobin(t *testing.T) {
	run := func(p Policy) *Result {
		cfg := baseConfig(t)
		cfg.Policy = p
		// One GPU on node 1 runs at ~1/4 speed for the whole trace.
		cfg.NodeFaults = []faults.NodeFault{
			{At: 0, Node: 1, Kind: faults.GPUDegrade, GPU: 0, Stretch: 3.0},
		}
		return Run(cfg)
	}
	rr := run(RoundRobin)
	slo := run(SLOAware)

	rrBad := rr.Rejected + rr.SLOViolations
	sloBad := slo.Rejected + slo.SLOViolations
	t.Logf("round-robin: %d rejected + %d violations = %d bad (completed %d)",
		rr.Rejected, rr.SLOViolations, rrBad, rr.Completed)
	t.Logf("slo-aware:   %d rejected + %d violations = %d bad (completed %d)",
		slo.Rejected, slo.SLOViolations, sloBad, slo.Completed)
	if sloBad >= rrBad {
		t.Fatalf("slo-aware bad requests (%d) not below round-robin (%d)", sloBad, rrBad)
	}
}

// TestNodeFaultDrainAndReplace is the second acceptance scenario: a node
// crash kills its replicas, and the next epoch's replan places
// replacements on the surviving nodes.
func TestNodeFaultDrainAndReplace(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Policy = LeastOutstanding
	// Crash node 2 mid-run, permanently.
	crashAt := 120 * sim.Millisecond
	cfg.NodeFaults = []faults.NodeFault{
		{At: crashAt, Node: 2, Kind: faults.NodeDown},
	}
	f := New(cfg)
	res := f.Run()

	if res.NodeFaults != 1 {
		t.Fatalf("node faults applied = %d, want 1", res.NodeFaults)
	}
	if f.nodes[2].up {
		t.Fatal("node 2 recovered without a recovery window")
	}
	for _, h := range f.handles {
		if h.node == 2 && !h.dead {
			t.Fatalf("replica %d still live on crashed node 2", h.id)
		}
	}
	// Replacement placement within one epoch of the crash: every model
	// still has live replicas, all on surviving nodes.
	for _, m := range f.router.models {
		live := 0
		for _, h := range m.replicas {
			if !h.draining && !h.dead {
				if h.node == 2 {
					t.Fatalf("model %s has a live replica on the crashed node", m.name)
				}
				live++
			}
		}
		if live == 0 {
			t.Fatalf("model %s has no live replicas after the crash", m.name)
		}
	}
	// Work kept completing after the crash (replacements took traffic).
	if res.Completed == 0 || res.Failed == 0 {
		t.Fatalf("expected both completions (%d) and crash losses (%d)", res.Completed, res.Failed)
	}
}

// TestFleetMetricsExposed asserts the fleet gauges and counters land in
// the registry and render through the Prometheus exposition — the same
// path httpapi's /metrics serves — and that every krisp_fleet_*_total
// counter equals its Result field at run end, including requests still
// queued when the run ends (counted rejected). A second run on the same
// registry must add to the counters, not replace them.
func TestFleetMetricsExposed(t *testing.T) {
	type metricsCase struct {
		name string
		cfg  Config
	}
	down := baseConfig(t)
	down.NodeFaults = []faults.NodeFault{
		{At: 100 * sim.Millisecond, Node: 0, Kind: faults.NodeDown},
	}
	cases := []metricsCase{{"base-node-down", down}}
	for _, s := range ChaosScenarios() {
		for _, gw := range []*gateway.Config{nil, {}} {
			cfg := chaosConfig(t)
			cfg.Gateway = gw
			applyChaos(t, &cfg, s.Name)
			cases = append(cases, metricsCase{fmt.Sprintf("%s/gateway=%v", s.Name, gw != nil), cfg})
		}
	}
	cases = append(cases, metricsCase{"llm-disagg", llmDisaggConfig()})

	counters := []struct {
		name   string
		result func(*Result) int
	}{
		{"krisp_fleet_routed_total", func(r *Result) int { return r.Routed }},
		{"krisp_fleet_rejected_total", func(r *Result) int { return r.Rejected }},
		{"krisp_fleet_completed_total", func(r *Result) int { return r.Completed }},
		{"krisp_fleet_failed_total", func(r *Result) int { return r.Failed }},
		{"krisp_fleet_slo_violations_total", func(r *Result) int { return r.SLOViolations }},
		{"krisp_fleet_migrations_total", func(r *Result) int { return r.Migrations }},
		{"krisp_fleet_resizes_total", func(r *Result) int { return r.Resizes }},
		{"krisp_fleet_drains_total", func(r *Result) int { return r.Drains }},
		{"krisp_fleet_node_faults_total", func(r *Result) int { return r.NodeFaults }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub := telemetry.NewHub(false)
			cfg := tc.cfg
			cfg.Telemetry = hub
			var results []*Result
			for run := 0; run < 2; run++ {
				f := New(cfg)
				res := f.Run()
				results = append(results, res)
				for _, c := range counters {
					want := 0
					for _, r := range results {
						want += c.result(r)
					}
					if got := hub.Reg.Counter(c.name, "").Value(); got != uint64(want) {
						t.Fatalf("run %d: %s = %d, want %d (summed Result)", run, c.name, got, want)
					}
				}
				up := 0
				for _, n := range f.nodes {
					if n.up {
						up++
					}
				}
				if got := hub.Reg.Gauge("krisp_fleet_nodes_up", "").Value(); got != int64(up) {
					t.Fatalf("run %d: krisp_fleet_nodes_up = %d, want %d", run, got, up)
				}
			}

			var sb strings.Builder
			if err := hub.Reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			for _, want := range []string{
				"krisp_fleet_routed_total",
				"krisp_fleet_nodes_up",
				fmt.Sprintf(`krisp_fleet_replicas{model="%s"}`, cfg.Workloads[0].Model.Name),
				`krisp_fleet_node_outstanding_bucket{le="1"}`,
				`krisp_fleet_node_laggard{rank="0"}`,
				`krisp_fleet_node_laggard_node{rank="0"}`,
			} {
				if !strings.Contains(out, want) {
					t.Fatalf("exposition missing %q\n%s", want, out)
				}
			}
		})
	}
}

// TestTelemetryDoesNotPerturb: a fleet run with a hub attached must be
// decision-identical to one without (telemetry only observes).
func TestTelemetryDoesNotPerturb(t *testing.T) {
	cfg := baseConfig(t)
	cfg.RecordRouting = true
	plain := Run(cfg)

	cfg2 := baseConfig(t)
	cfg2.RecordRouting = true
	cfg2.Telemetry = telemetry.NewHub(false)
	instrumented := Run(cfg2)

	if plain.RoutingLog != instrumented.RoutingLog {
		t.Fatal("telemetry changed routing decisions")
	}
	if plain.Completed != instrumented.Completed || plain.SLOViolations != instrumented.SLOViolations {
		t.Fatalf("telemetry changed results: %+v vs %+v", plain, instrumented)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range Policies() {
		got, err := PolicyByName(p.String())
		if err != nil || got != p {
			t.Fatalf("PolicyByName(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// TestPullCompletionsZeroAlloc guards the per-tick completion pull on a
// gateway fleet, the path that replays completions in virtual-time order:
// once warm, a tick that serves a request on every live replica and pulls
// the completions allocates nothing.
func TestPullCompletionsZeroAlloc(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Gateway = &gateway.Config{}
	f := New(cfg)
	f.Run()
	now := f.cfg.Duration
	pulled := 0
	cycle := func() {
		for _, h := range f.handles {
			if !h.dead && !h.draining {
				h.rep.Submit(now)
			}
		}
		now += 10 * f.cfg.Tick
		for _, n := range f.nodes {
			if n.up {
				n.node.RunUntil(now)
			}
		}
		f.pullCompletions(now)
		pulled = len(f.complPairs)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if pulled < 2 {
		t.Fatalf("a tick pulled %d completions, want several to order", pulled)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("serve+pull tick allocates %.2f/op, want 0", allocs)
	}
}
