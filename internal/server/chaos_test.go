package server

import (
	"context"
	"reflect"
	"testing"

	"krisp/internal/core"
	"krisp/internal/faults"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/policies"
	"krisp/internal/sim"
)

// chaosConfig is a small two-worker colocation with explicit windows so
// fault timelines can be placed deterministically: warmup ends at 40ms,
// measurement at 440ms (~30+ batches per worker for squeezenet).
func chaosConfig(t *testing.T, policy policies.Kind, plan *faults.Plan) Config {
	t.Helper()
	return Config{
		Policy: policy,
		Workers: []WorkerSpec{
			{Model: mustModel(t, "squeezenet"), Batch: 32},
			{Model: mustModel(t, "squeezenet"), Batch: 32},
		},
		Seed:    42,
		Warmup:  40_000,
		Measure: 400_000,
		Faults:  plan,
	}
}

func TestChaosCUDeathCompletesAndRemasks(t *testing.T) {
	plan := &faults.Plan{
		Seed: 1,
		CUKills: []faults.CUKill{
			{At: 60_000, GPU: 0, CU: 0},
			{At: 60_000, GPU: 0, CU: 1},
			{At: 120_000, GPU: 0, CU: 16},
			{At: 120_000, GPU: 0, CU: 17},
		},
	}
	res := Run(chaosConfig(t, policies.KRISPI, plan))
	if res.TotalRequests() == 0 {
		t.Fatal("CU-death run completed no requests")
	}
	for i, w := range res.Workers {
		if w.Batches == 0 {
			t.Errorf("worker %d starved after CU deaths", i)
		}
	}
	if res.Faults == nil {
		t.Fatal("Result.Faults nil despite armed plan")
	}
	if res.Faults.CUKills != 4 {
		t.Errorf("CUKills = %d, want 4", res.Faults.CUKills)
	}
	if res.Faults.HealthRemasks == 0 {
		t.Error("no dispatches were re-masked around the dead CUs")
	}
}

func TestChaosQueueStallWatchdogRecovers(t *testing.T) {
	plan := &faults.Plan{
		Seed: 2,
		// Hang worker 0's packet processor indefinitely: only a watchdog
		// queue reset can recover it.
		QueueStalls: []faults.QueueStall{
			{At: 80_000, GPU: 0, Queue: 0, Duration: 1e12},
		},
		WatchdogTimeout: 40_000,
	}
	res := Run(chaosConfig(t, policies.KRISPI, plan))
	if res.TotalRequests() == 0 {
		t.Fatal("stall run completed no requests")
	}
	if res.Faults.QueueStalls != 1 {
		t.Errorf("QueueStalls = %d, want 1", res.Faults.QueueStalls)
	}
	if res.Faults.WatchdogTrips == 0 {
		t.Error("watchdog never tripped on a hung queue")
	}
	if res.Faults.WatchdogResets == 0 {
		t.Error("watchdog never reset the hung queue")
	}
	// The stalled worker must resume completing batches after the reset.
	if res.Workers[0].Batches == 0 {
		t.Error("hung worker never completed a batch after recovery")
	}
}

func TestChaosIOCTLFailuresEngageLadder(t *testing.T) {
	plan := &faults.Plan{
		Seed:  3,
		IOCTL: faults.IOCTLFaults{FailProb: 0.5},
	}
	cfg := chaosConfig(t, policies.KRISPI, plan)
	cfg.ForceEmulation = true // the IOCTL-per-kernel path
	res := Run(cfg)
	if res.TotalRequests() == 0 {
		t.Fatal("IOCTL-failure run completed no requests")
	}
	if res.Faults.IOCTLFailures == 0 {
		t.Fatal("no IOCTL failures injected at prob 0.5")
	}
	if res.Faults.MaskFallbacks == 0 {
		t.Error("no kernels fell back to the stream mask after a failed IOCTL")
	}
	if res.Faults.StreamFallbacks == 0 {
		t.Error("degradation ladder never dropped to stream-scoped masking")
	}
	if res.Faults.DegradedTime <= 0 {
		t.Error("no degraded time accounted despite ladder fallbacks")
	}
}

func TestChaosKernelFaultsRetryAndComplete(t *testing.T) {
	plan := &faults.Plan{
		Seed: 4,
		Kernels: faults.KernelFaults{
			StragglerProb:     0.01,
			StragglerStretch:  3,
			TransientFailProb: 0.01,
		},
	}
	res := Run(chaosConfig(t, policies.KRISPI, plan))
	if res.TotalRequests() == 0 {
		t.Fatal("kernel-fault run completed no requests")
	}
	if res.Faults.KernelStragglers == 0 {
		t.Error("no stragglers injected")
	}
	if res.Faults.KernelTransientFailures == 0 {
		t.Error("no transient failures injected")
	}
	if res.Faults.KernelRetries == 0 {
		t.Error("hardened runtime never retried a failed kernel")
	}
}

// TestChaosDeterministicPerSeed runs the full fault cocktail twice with one
// seed and once with another: equal seeds must agree bit-for-bit, and the
// different seed must not.
func TestChaosDeterministicPerSeed(t *testing.T) {
	mkPlan := func(seed int64) *faults.Plan {
		return &faults.Plan{
			Seed:        seed,
			CUKills:     []faults.CUKill{{At: 70_000, GPU: 0, CU: 2}},
			QueueStalls: []faults.QueueStall{{At: 90_000, GPU: 0, Queue: 1, Duration: 20_000}},
			IOCTL:       faults.IOCTLFaults{FailProb: 0.2, SlowProb: 0.2, SlowExtra: 200},
			Kernels: faults.KernelFaults{
				StragglerProb:     0.01,
				StragglerStretch:  3,
				TransientFailProb: 0.01,
			},
		}
	}
	cfg := chaosConfig(t, policies.KRISPI, mkPlan(7))
	cfg.ForceEmulation = true
	a := Run(cfg)
	b := Run(chaosConfigCopy(cfg))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n a=%+v\n b=%+v", a, b)
	}
	cfg2 := chaosConfig(t, policies.KRISPI, mkPlan(8))
	cfg2.ForceEmulation = true
	c := Run(cfg2)
	if a.RPS == c.RPS && reflect.DeepEqual(a.Faults, c.Faults) {
		t.Error("different fault seeds produced identical runs")
	}
}

// chaosConfigCopy re-runs the exact same experiment (Config is a value;
// this exists to make the double-run explicit at the call site).
func chaosConfigCopy(cfg Config) Config { return cfg }

// TestChaosP99Bounded checks the graceful half of graceful degradation:
// under a moderate fault cocktail the windowed tail stays within a small
// multiple of the fault-free tail instead of running away.
func TestChaosP99Bounded(t *testing.T) {
	base := Run(chaosConfig(t, policies.KRISPI, nil))
	plan := &faults.Plan{
		Seed:    5,
		CUKills: []faults.CUKill{{At: 60_000, GPU: 0, CU: 3}},
		Kernels: faults.KernelFaults{
			StragglerProb:     0.005,
			StragglerStretch:  3,
			TransientFailProb: 0.005,
		},
	}
	chaos := Run(chaosConfig(t, policies.KRISPI, plan))
	for i := range chaos.Workers {
		bp := base.Workers[i].BatchLatency.P99()
		cp := chaos.Workers[i].BatchLatency.P99()
		if cp <= 0 {
			t.Fatalf("worker %d: no p99 under chaos", i)
		}
		if cp > 10*bp {
			t.Errorf("worker %d: chaos p99 %.0fus blew past 10x fault-free %.0fus", i, cp, bp)
		}
	}
}

// TestEmptyPlanBitIdentical is the no-regression guarantee: a nil plan, a
// zero plan, and a knobs-only plan must produce byte-for-byte the same
// Result as each other — fault injection armed nowhere, no extra events,
// no extra RNG draws.
func TestEmptyPlanBitIdentical(t *testing.T) {
	base := Run(chaosConfig(t, policies.KRISPI, nil))
	zero := Run(chaosConfig(t, policies.KRISPI, &faults.Plan{}))
	knobs := Run(chaosConfig(t, policies.KRISPI, &faults.Plan{
		Seed:       99,
		MaxRetries: 9,
		SLOP99:     1,
	}))
	if !reflect.DeepEqual(base, zero) {
		t.Errorf("zero plan perturbed the run:\n nil=%+v\n zero=%+v", base, zero)
	}
	if !reflect.DeepEqual(base, knobs) {
		t.Errorf("knobs-only plan perturbed the run:\n nil=%+v\n knobs=%+v", base, knobs)
	}
	if base.Faults != nil {
		t.Error("fault stats attached to a fault-free run")
	}
}

func TestRunHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := chaosConfig(t, policies.KRISPI, nil)
	cfg.Ctx = ctx
	res := Run(cfg)
	if !res.Interrupted {
		t.Error("pre-canceled context did not interrupt the run")
	}
	if res.TotalRequests() != 0 {
		t.Errorf("interrupted-at-start run completed %d requests", res.TotalRequests())
	}
}

// TestSLOGuardWidensAndTightens drives the guard's tick logic directly:
// a blown p99 walks every runtime down the ladder and starts the
// cool-down; calm windows after the cool-down re-tighten one rung at a
// time.
func TestSLOGuardWidensAndTightens(t *testing.T) {
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cp := hsa.NewCommandProcessor(eng, dev, hsa.DefaultConfig())
	q := cp.NewQueue()
	stats := &faults.Stats{}
	rt := core.NewRuntime(eng, cp, q, core.NewRightSizer(nil, 60), core.Config{
		Mode: core.ModeNative,
		Hardening: &core.Hardening{
			MaxRetries: 3, RetryBackoff: 50, IOCTLFailureStreak: 3, Stats: stats,
		},
	})
	ch := &chaosHarness{
		eng:          eng,
		stats:        stats,
		runtimes:     []*core.Runtime{rt},
		batchTimeout: 10_000,
		window:       1_000,
		p99Threshold: 500,
		cooldown:     2_000,
		stopAt:       0, // ticks driven by hand
	}

	feed := func(latency sim.Duration, n int) {
		for i := 0; i < n; i++ {
			ch.observeBatch(latency)
		}
	}

	feed(2_000, 10) // tail far above threshold
	ch.tick()
	if stats.SLOWidenings != 1 || rt.Level() != core.LadderStreamScoped {
		t.Fatalf("after breach: widenings=%d level=%d", stats.SLOWidenings, rt.Level())
	}
	feed(2_000, 10) // still breached: next rung
	ch.tick()
	if rt.Level() != core.LadderFullGPU || stats.FullGPUFallbacks != 1 {
		t.Fatalf("after second breach: level=%d fullGPU=%d", rt.Level(), stats.FullGPUFallbacks)
	}

	// Calm window inside the cool-down: no tightening yet.
	feed(100, 10)
	ch.tick()
	if rt.Level() != core.LadderFullGPU {
		t.Fatal("tightened during the cool-down")
	}
	// Past the cool-down, calm windows tighten one rung per tick.
	eng.RunUntil(eng.Now() + 5_000)
	feed(100, 10)
	ch.tick()
	if rt.Level() != core.LadderStreamScoped || stats.LadderTightenings != 1 {
		t.Fatalf("after calm window: level=%d tightenings=%d", rt.Level(), stats.LadderTightenings)
	}
	feed(100, 10)
	ch.tick()
	if rt.Level() != core.LadderKernelScoped {
		t.Fatalf("never returned to kernel-scoped: level=%d", rt.Level())
	}
	if stats.DegradedTime <= 0 {
		t.Error("degraded time not accumulated across the widened interval")
	}
}

// TestWatchdogTripResetsAndWidens drives a watchdog directly against a
// hung queue.
func TestWatchdogTripResetsAndWidens(t *testing.T) {
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cp := hsa.NewCommandProcessor(eng, dev, hsa.DefaultConfig())
	q := cp.NewQueue()
	stats := &faults.Stats{}
	rt := core.NewRuntime(eng, cp, q, core.NewRightSizer(nil, 60), core.Config{
		Mode: core.ModeNative,
		Hardening: &core.Hardening{
			MaxRetries: 3, RetryBackoff: 50, IOCTLFailureStreak: 3, Stats: stats,
		},
	})
	ch := &chaosHarness{
		eng: eng, stats: stats, runtimes: []*core.Runtime{rt},
		batchTimeout: 1_000, window: 100_000, p99Threshold: 1, cooldown: 1,
	}

	q.StallFor(1e12)
	wd := ch.armWatchdog(rt)
	eng.RunUntil(1_500)
	if stats.WatchdogTrips != 1 {
		t.Fatalf("trips = %d, want 1", stats.WatchdogTrips)
	}
	if stats.WatchdogResets != 1 {
		t.Fatalf("resets = %d, want 1", stats.WatchdogResets)
	}
	if q.Stalled() {
		t.Error("queue still stalled after watchdog reset")
	}
	if rt.Level() == core.LadderKernelScoped {
		t.Error("watchdog trip did not widen the runtime")
	}
	// A re-armed watchdog keeps firing until stopped.
	eng.RunUntil(2_500)
	if stats.WatchdogTrips != 2 {
		t.Errorf("watchdog did not re-arm: trips = %d", stats.WatchdogTrips)
	}
	wd.stop()
	eng.RunUntil(10_000)
	if stats.WatchdogTrips != 2 {
		t.Errorf("stopped watchdog fired again: trips = %d", stats.WatchdogTrips)
	}
}
