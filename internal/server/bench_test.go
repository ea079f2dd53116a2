package server

import (
	"testing"

	"krisp/internal/gpu"
	"krisp/internal/llm"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/sim"
)

// serveOneBatch returns the KRISP-I squeezenet serve config measured by
// BenchmarkServeOneBatchKRISP and guarded by TestServeRunAllocs.
func serveOneBatch(tb testing.TB) func(seed int64) Config {
	m, ok := models.ByName("squeezenet")
	if !ok {
		tb.Fatal("model missing")
	}
	db := BuildDB(gpuSpecDefault(), []WorkerSpec{{Model: m, Batch: 32}})
	return func(seed int64) Config {
		return Config{
			Policy:  policies.KRISPI,
			Workers: []WorkerSpec{{Model: m, Batch: 32}},
			DB:      db,
			Seed:    seed,
			Warmup:  8_000,
			Measure: 80_000,
		}
	}
}

// BenchmarkServeOneBatchKRISP measures the end-to-end simulation cost per
// served batch (virtual serving of squeezenet under KRISP-I).
func BenchmarkServeOneBatchKRISP(b *testing.B) {
	mk := serveOneBatch(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(mk(int64(i)))
	}
}

// TestServeRunAllocs guards the pooled run context: once warm, a whole
// serve run stays at or under 20 allocations, also when consecutive runs
// alternate between MPS-default and KRISP-I, whose command processors
// differ only in their per-run cost model.
func TestServeRunAllocs(t *testing.T) {
	mk := serveOneBatch(t)
	seed := int64(0)
	run := func() {
		seed++
		cfg := mk(seed)
		if seed%2 == 0 {
			cfg.Policy = policies.MPSDefault
		}
		Run(cfg)
	}
	run() // warm the pool under both policies
	run()
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 20 {
		t.Fatalf("serve run allocates %.1f/run, want at most 20", allocs)
	}
}

// BenchmarkFourWorkerContention measures the heavy case: four contending
// workers with full per-kernel allocation.
func BenchmarkFourWorkerContention(b *testing.B) {
	m, ok := models.ByName("squeezenet")
	if !ok {
		b.Fatal("model missing")
	}
	specs := []WorkerSpec{
		{Model: m, Batch: 32}, {Model: m, Batch: 32},
		{Model: m, Batch: 32}, {Model: m, Batch: 32},
	}
	db := BuildDB(gpuSpecDefault(), specs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(Config{
			Policy:  policies.KRISPI,
			Workers: specs,
			DB:      db,
			Seed:    int64(i),
			Warmup:  10_000,
			Measure: 100_000,
		})
	}
}

func gpuSpecDefault() gpu.DeviceSpec { return gpu.MI50Spec() }

// BenchmarkLLMContinuousBatch measures the steady-state continuous-
// batching token loop: a saturated 8-sequence batch advanced one virtual
// millisecond per iteration, finished sequences replaced at the token
// boundary they leave on. Steady state must not allocate — this is the
// loop the CI serve-alloc guard watches.
func BenchmarkLLMContinuousBatch(b *testing.B) {
	n := NewNode(NodeConfig{GPUs: 1, Seed: 1})
	rep := n.AddReplica(ReplicaSpec{GPU: 0, CUs: 60, LLM: &LLMSpec{Model: llm.Small(), MaxSeqs: 8}})
	next := uint64(0)
	now := sim.Time(0)
	var buf []Completion
	submit := func() {
		next++
		rep.SubmitSeq(now, next, 64, 256, false)
	}
	for i := 0; i < 8; i++ {
		submit()
	}
	// Warm every pool and buffer to its high-water mark.
	for i := 0; i < 100; i++ {
		now += sim.Millisecond
		n.RunUntil(now)
		buf = rep.TakeCompletions(buf[:0])
		for range buf {
			submit()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += sim.Millisecond
		n.RunUntil(now)
		buf = rep.TakeCompletions(buf[:0])
		for range buf {
			submit()
		}
	}
}
