package server

import (
	"math"
	"testing"

	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/trace"
)

func mustModel(t *testing.T, name string) models.Model {
	t.Helper()
	m, ok := models.ByName(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	return m
}

func run(t *testing.T, policy policies.Kind, workers int, model string, batch int) Result {
	t.Helper()
	specs := make([]WorkerSpec, workers)
	for i := range specs {
		specs[i] = WorkerSpec{Model: mustModel(t, model), Batch: batch}
	}
	res := Run(Config{Policy: policy, Workers: specs, Seed: 42})
	// Closed-loop conservation: every counted batch served exactly Batch
	// requests.
	for i, w := range res.Workers {
		if w.Requests != w.Batches*w.Batch {
			t.Fatalf("worker %d: %d requests in %d batches of %d", i, w.Requests, w.Batches, w.Batch)
		}
	}
	return res
}

func TestSingleWorkerBaseline(t *testing.T) {
	res := run(t, policies.MPSDefault, 1, "squeezenet", 32)
	if res.TotalRequests() == 0 {
		t.Fatal("no requests completed")
	}
	if res.RPS <= 0 {
		t.Fatalf("RPS = %v", res.RPS)
	}
	w := res.Workers[0]
	if w.Batches == 0 || w.Requests != w.Batches*32 {
		t.Errorf("batches=%d requests=%d", w.Batches, w.Requests)
	}
	// p95 should be in the vicinity of the model's isolated latency
	// (~8ms) plus pre/post.
	p95ms := w.P95() / 1000
	if p95ms < 3 || p95ms > 20 {
		t.Errorf("p95 = %.1fms, want ~8ms ballpark", p95ms)
	}
	if res.EnergyPerInference <= 0 {
		t.Error("no energy accounted")
	}
	if res.AvgBusyCUs <= 0 {
		t.Error("no utilization accounted")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := run(t, policies.KRISPI, 2, "squeezenet", 32)
	b := run(t, policies.KRISPI, 2, "squeezenet", 32)
	if a.RPS != b.RPS || a.EnergyJ != b.EnergyJ {
		t.Errorf("same seed, different results: %v vs %v RPS", a.RPS, b.RPS)
	}
}

func TestTwoWorkersImproveThroughput(t *testing.T) {
	// squeezenet right-sizes to ~21 CUs: two copies fit side by side, so
	// every policy should deliver more aggregate RPS than one worker.
	one := run(t, policies.MPSDefault, 1, "squeezenet", 32)
	for _, p := range policies.All() {
		two := run(t, p, 2, "squeezenet", 32)
		if two.RPS <= one.RPS*1.2 {
			t.Errorf("%v: 2-worker RPS %.1f not >1.2x single %.1f", p, two.RPS, one.RPS)
		}
	}
}

func TestKRISPIIsolatesAtFourWorkers(t *testing.T) {
	// The paper's headline: at 4 workers KRISP-I sustains throughput
	// scaling where MPS Default collapses under contention.
	mps := run(t, policies.MPSDefault, 4, "squeezenet", 32)
	krispI := run(t, policies.KRISPI, 4, "squeezenet", 32)
	if krispI.RPS <= mps.RPS {
		t.Errorf("KRISP-I RPS %.1f not above MPS Default %.1f at 4 workers",
			krispI.RPS, mps.RPS)
	}
}

func TestModelRightSizeOversubscriptionFlag(t *testing.T) {
	// vgg19 right-sizes to 60 CUs: two workers cannot fit.
	res := run(t, policies.ModelRightSize, 2, "vgg19", 32)
	if !res.Oversubscribed {
		t.Error("2x vgg19 under Model Right-Size should be oversubscribed")
	}
	res = run(t, policies.ModelRightSize, 2, "albert", 32)
	if res.Oversubscribed {
		t.Error("2x albert (12 CUs each) should fit without oversubscription")
	}
}

func TestEnergyPerInferenceDropsWithColocation(t *testing.T) {
	one := run(t, policies.MPSDefault, 1, "albert", 32)
	two := run(t, policies.KRISPI, 2, "albert", 32)
	if two.EnergyPerInference >= one.EnergyPerInference {
		t.Errorf("energy/inf did not drop: 1w=%.3fJ 2w=%.3fJ",
			one.EnergyPerInference, two.EnergyPerInference)
	}
}

func TestTraceCapturesWorkerZero(t *testing.T) {
	tr := &trace.Trace{}
	m := mustModel(t, "squeezenet")
	res := Run(Config{
		Policy:  policies.KRISPI,
		Workers: []WorkerSpec{{Model: m, Batch: 32}},
		Seed:    1,
		Trace:   tr,
	})
	if res.TotalRequests() == 0 {
		t.Fatal("no requests")
	}
	if tr.Len() < m.PaperKernels {
		t.Errorf("trace has %d records, want >= %d (one pass)", tr.Len(), m.PaperKernels)
	}
	for _, r := range tr.Records()[:m.PaperKernels] {
		if r.AllocatedCUs < 1 || r.AllocatedCUs > 60 {
			t.Fatalf("record %d allocated %d CUs", r.Seq, r.AllocatedCUs)
		}
		if r.MinCU < 1 {
			t.Fatalf("record %d minCU %d — right-sizing not applied", r.Seq, r.MinCU)
		}
	}
}

func TestMixedModelsRun(t *testing.T) {
	res := Run(Config{
		Policy: policies.KRISPI,
		Workers: []WorkerSpec{
			{Model: mustModel(t, "albert"), Batch: 32},
			{Model: mustModel(t, "squeezenet"), Batch: 32},
		},
		Seed: 7,
	})
	if res.Workers[0].Requests == 0 || res.Workers[1].Requests == 0 {
		t.Errorf("a worker starved: %+v", res.Workers)
	}
}

func TestForceEmulationSlower(t *testing.T) {
	m := mustModel(t, "squeezenet")
	native := Run(Config{
		Policy:  policies.KRISPI,
		Workers: []WorkerSpec{{Model: m, Batch: 32}},
		Seed:    3,
	})
	emulated := Run(Config{
		Policy:         policies.KRISPI,
		Workers:        []WorkerSpec{{Model: m, Batch: 32}},
		Seed:           3,
		ForceEmulation: true,
	})
	if emulated.Workers[0].BatchLatency.Mean() <= native.Workers[0].BatchLatency.Mean() {
		t.Errorf("emulated mean latency %.0fus not above native %.0fus",
			emulated.Workers[0].BatchLatency.Mean(), native.Workers[0].BatchLatency.Mean())
	}
}

func TestSmallBatchRuns(t *testing.T) {
	res := run(t, policies.KRISPI, 2, "mobilenet", 8)
	if res.TotalRequests() == 0 {
		t.Fatal("no requests at batch 8")
	}
	if res.Workers[0].Requests != res.Workers[0].Batches*8 {
		t.Error("request accounting wrong at batch 8")
	}
}

func TestRunPanicsWithoutWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run without workers did not panic")
		}
	}()
	Run(Config{Policy: policies.MPSDefault})
}

func TestMaxP95NaNOnDegenerateRun(t *testing.T) {
	// No workers at all.
	var empty Result
	if got := empty.MaxP95(); !math.IsNaN(got) {
		t.Fatalf("MaxP95 with no workers = %v, want NaN", got)
	}
	// Workers that never completed a batch inside the window.
	unmeasured := Result{Workers: make([]WorkerStats, 3)}
	if got := unmeasured.MaxP95(); !math.IsNaN(got) {
		t.Fatalf("MaxP95 with unmeasured workers = %v, want NaN", got)
	}
	// One measured worker among unmeasured ones: its p95 wins, NaN-free.
	mixed := Result{Workers: make([]WorkerStats, 3)}
	mixed.Workers[1].BatchLatency.Add(1000)
	mixed.Workers[1].BatchLatency.Add(2000)
	if got := mixed.MaxP95(); math.IsNaN(got) || got <= 0 {
		t.Fatalf("MaxP95 with one measured worker = %v, want its p95", got)
	}
}
