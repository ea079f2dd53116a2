package cluster

import (
	"fmt"
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/faults"
	"krisp/internal/server"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// grayBurn is the chaos-test burn config, tuned from the measured
// deterministic rates with >= 2x margins on both sides: the healthy run's
// worst post-gate window burns ~0.7 (startup sheds diluted across the
// first full fast window), the gray run sustains ~4.2 — so warn 1.4 and
// page 2 split the gap with a factor of two each way. MinCount 100 gates
// the cold-start ticks, whose tiny windows would otherwise page on the
// handful of warm-up sheds.
func grayBurn() telemetry.BurnConfig {
	return telemetry.BurnConfig{
		Objective:    0.85,
		WidthUs:      20_000,
		FastWindowUs: 40_000,
		SlowWindowUs: 120_000,
		PageBurn:     2,
		WarnBurn:     1.4,
		ClearHoldUs:  60_000,
		MinCount:     100,
	}
}

// TestJourneyMatrixIdentical is the observability determinism guarantee:
// full journey sampling plus burn-rate monitors must leave the routing log
// and the entire Result byte-identical to an unobserved lockstep run — on
// both schedulers and every worker count, with the gateway's hedging and a
// node fault in play. Run under -race this also proves the observer stays
// on the control goroutine.
func TestJourneyMatrixIdentical(t *testing.T) {
	run := func(lockstep bool, workers int, obs *Observability) *Result {
		cfg := baseConfig(t)
		cfg.Policy = SLOAware
		cfg.Gateway = &gateway.Config{}
		cfg.Obs = obs
		cfg.NodeFaults = []faults.NodeFault{
			{At: 0, Node: 1, Kind: faults.GPUDegrade, GPU: 0, Stretch: 3.0},
			{At: 140 * sim.Millisecond, Node: 2, Kind: faults.NodeDown,
				Duration: 80 * sim.Millisecond},
		}
		return runFleet(cfg, lockstep, workers)
	}

	base := run(true, 1, nil)
	if base.RoutingLog == "" {
		t.Fatal("no routing decisions recorded")
	}
	obs := &Observability{SampleEvery: 1, Monitors: true, FlightCap: 32}
	for _, lockstep := range []bool{true, false} {
		for _, workers := range []int{1, 0, 8} {
			requireIdentical(t, fmt.Sprintf("journeys lockstep=%v workers=%d", lockstep, workers),
				base, run(lockstep, workers, obs))
		}
	}
}

// TestChaosGrayNodePagesMonitor: the gray-node chaos scenario must drive
// the model's burn-rate monitor to page, deterministically, while the
// identical healthy fleet never leaves ok — and the flight recorder must
// retain at least one anomalous journey whose stage breakdown telescopes
// to its end-to-end latency.
func TestChaosGrayNodePagesMonitor(t *testing.T) {
	run := func(chaos bool) *Fleet {
		cfg := chaosConfig(t)
		cfg.Gateway = &gateway.Config{}
		if chaos {
			applyChaos(t, &cfg, "gray-node")
		}
		// Cap above the run's anomaly count so shed journeys don't evict the
		// completed (hedged / SLO-violating) ones this test telescopes.
		cfg.Obs = &Observability{SampleEvery: 1, Monitors: true, Burn: grayBurn(), FlightCap: 1024}
		f := New(cfg)
		f.Run()
		return f
	}

	healthy := run(false)
	for _, s := range healthy.SLOStatuses() {
		if s.State != "ok" || s.Transitions != 0 {
			t.Fatalf("healthy baseline alerted: %+v", s)
		}
	}

	gray := run(true)
	paged := false
	for _, s := range gray.SLOStatuses() {
		if s.State == "page" {
			paged = true
			if len(s.History) == 0 {
				t.Fatalf("paged monitor has no transition history: %+v", s)
			}
		}
	}
	if !paged {
		t.Fatalf("gray-node chaos did not page any monitor: %+v", gray.SLOStatuses())
	}

	fl := gray.FlightRecorder()
	if fl == nil || fl.Len() == 0 {
		t.Fatal("gray-node chaos left the flight recorder empty")
	}
	telescoped := 0
	for _, j := range fl.Journeys() {
		if j.Outcome != telemetry.JourneyCompleted {
			continue
		}
		var sum int64
		for s := 0; s < telemetry.NumStages; s++ {
			d := j.StageUs(s)
			if d < 0 {
				t.Fatalf("completed journey %d missing stage %s: %+v", j.ID, telemetry.StageNames[s], j)
			}
			sum += d
		}
		if sum != j.LatencyUs() {
			t.Fatalf("journey %d: stage sum %d != latency %d", j.ID, sum, j.LatencyUs())
		}
		telescoped++
	}
	if telescoped == 0 {
		t.Fatal("no completed journey with a telescoping stage breakdown in the flight ring")
	}
	if fl.Total() < 10 {
		t.Fatalf("flight recorder saw only %d anomalous journeys", fl.Total())
	}
	t.Logf("flight: %d retained, %d total, %d completed telescoped", fl.Len(), fl.Total(), telescoped)
}

// TestFlightRecorderTelescopesUnderHedging is the healthy-fleet twin: with
// hedging active, anomalous (hedged / SLO-violating) journeys complete and
// their stage breakdowns must telescope exactly.
func TestFlightRecorderTelescopesUnderHedging(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Gateway = &gateway.Config{}
	cfg.Obs = &Observability{SampleEvery: 1, FlightCap: 64}
	f := New(cfg)
	f.Run()
	fl := f.FlightRecorder()
	completed := 0
	for _, j := range fl.Journeys() {
		if j.Outcome != telemetry.JourneyCompleted {
			continue
		}
		completed++
		var sum int64
		for s := 0; s < telemetry.NumStages; s++ {
			d := j.StageUs(s)
			if d < 0 {
				t.Fatalf("completed journey %d missing stage %s: %+v", j.ID, telemetry.StageNames[s], j)
			}
			sum += d
		}
		if sum != j.LatencyUs() {
			t.Fatalf("journey %d: stage sum %d != latency %d", j.ID, sum, j.LatencyUs())
		}
	}
	if completed == 0 {
		t.Fatalf("no completed anomalous journeys recorded (flight: %d retained, %d total)",
			fl.Len(), fl.Total())
	}
}

// TestStageHistogramsPopulated: sampled journeys must land in the
// per-(model, tenant) stage histograms on the hub's registry.
func TestStageHistogramsPopulated(t *testing.T) {
	hub := telemetry.NewHub(false)
	cfg := baseConfig(t)
	cfg.Telemetry = hub
	cfg.Gateway = &gateway.Config{}
	cfg.Obs = &Observability{SampleEvery: 1}
	res := New(cfg).Run()
	if res.Completed == 0 {
		t.Fatal("fleet completed nothing")
	}
	for _, stage := range telemetry.StageNames {
		name := fmt.Sprintf(`krisp_stage_%s_us{model="squeezenet",tenant="0"}`, stage)
		h := hub.Reg.Histogram(name, "", telemetry.LatencyBucketsUs())
		if h.Count() == 0 {
			t.Fatalf("stage histogram %s empty", name)
		}
	}
}

// TestObservabilityOffIsFree: a nil and a fully-disabled Obs produce no
// observer at all, so the event-horizon scheduler keeps its idle-skip path.
func TestObservabilityOffIsFree(t *testing.T) {
	if o := newFleetObserver(nil, nil, nil, 0, sim.Millisecond); o != nil {
		t.Fatal("nil Obs built an observer")
	}
	if o := newFleetObserver(&Observability{}, nil, nil, 0, sim.Millisecond); o != nil {
		t.Fatal("disabled Obs built an observer")
	}
}

// routeHookBench mirrors send()'s instrumentation sequence — identity
// allocation, journey sampling, trace instant — on top of the pick loop
// from BenchmarkFleetRoutingDecision, without the node scheduling that both
// modes share. This is the path the journeys-off zero-alloc guarantee
// covers.
func routeHookBench(r *router, m *modelState) {
	h := r.pick(m, 0, -1)
	var id uint64
	if r.gw != nil || r.obs.journeysOn() {
		r.reqSeq++
		id = r.reqSeq
	}
	r.obs.onSend(id, m, h, 0, 0, 0)
	r.tel.traceRoute(0, h.id)
	h.outstanding++
	if h.outstanding > 1<<20 {
		for _, rh := range m.replicas {
			rh.outstanding = 0
		}
	}
}

func obsRouterBench(sampleEvery int) (*router, *modelState, *fleetObserver) {
	r := newRouter(SLOAware, 1, 1<<30, 0, nil, false)
	m := &modelState{name: "m", batch: 8, sloUs: 20000}
	for i := 0; i < 8; i++ {
		h := &replicaHandle{id: i}
		for j := 0; j < 64; j++ {
			h.lat.add(float64(5000 + i*100 + j))
		}
		m.replicas = append(m.replicas, h)
	}
	r.models = []*modelState{m}
	var obs *fleetObserver
	if sampleEvery >= 0 {
		obs = newFleetObserver(&Observability{SampleEvery: sampleEvery, Monitors: true},
			nil, []string{"m"}, 1, 2*sim.Millisecond)
		r.obs = obs
	}
	return r, m, obs
}

// TestRouteJourneysOffZeroAlloc pins the PR's hot-path invariant: with an
// observer attached but sampling off, the routing path allocates nothing.
func TestRouteJourneysOffZeroAlloc(t *testing.T) {
	r, m, _ := obsRouterBench(0)
	allocs := testing.AllocsPerRun(1000, func() {
		routeHookBench(r, m)
	})
	if allocs != 0 {
		t.Fatalf("journeys-off route path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkRouteWithJourneys measures the routing decision under the three
// sampling regimes BENCH_PR9.json's overhead section recorded. The sampled
// variants complete each journey immediately so the pooled records recycle,
// as they do steady-state in a live fleet.
func BenchmarkRouteWithJourneys(b *testing.B) {
	for _, bc := range []struct {
		name        string
		sampleEvery int
	}{
		{"off", 0},
		{"1pct", 100},
		{"all", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r, m, obs := obsRouterBench(bc.sampleEvery)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routeHookBench(r, m)
				if obs != nil && obs.byID != nil && len(obs.byID) > 0 {
					h := m.replicas[0]
					obs.onWinner(m, h, server.Completion{
						ID: r.reqSeq, Arrival: 0, End: 9000,
						Enqueued: 10, BatchStart: 200, KernelStart: 300, KernelEnd: 8000,
					}, false)
				}
			}
		})
	}
}

// BenchmarkFleetScalingJourneys is the whole-fleet overhead benchmark
// behind BENCH_PR9.json's journey-sampling section: the 16-node
// event-horizon sweep from BenchmarkFleetScaling with observability off,
// at 1% sampling, and at full sampling (monitors on in both sampled
// modes).
func BenchmarkFleetScalingJourneys(b *testing.B) {
	for _, bc := range []struct {
		name string
		obs  *Observability
	}{
		{"off", nil},
		{"1pct", &Observability{SampleEvery: 100, Monitors: true}},
		{"all", &Observability{SampleEvery: 1, Monitors: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := scalingConfig(b, 16)
			cfg.Parallel = 0
			cfg.Obs = bc.obs
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += Run(cfg).Routed
			}
			b.StopTimer()
			if total == 0 {
				b.Fatal("fleet routed nothing")
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "requests/s")
		})
	}
}
