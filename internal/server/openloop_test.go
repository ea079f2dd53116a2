package server

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"krisp/internal/policies"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

func runOpen(t *testing.T, rate float64, workers int) OpenLoopResult {
	t.Helper()
	m := mustModel(t, "squeezenet")
	specs := make([]WorkerSpec, workers)
	for i := range specs {
		specs[i] = WorkerSpec{Model: m, Batch: 32}
	}
	return runOpenChecked(t, Config{
		Policy:  policies.KRISPI,
		Workers: specs,
		Seed:    11,
	}, Arrival{RatePerSec: rate})
}

// runOpenChecked runs an open-loop experiment and checks request
// conservation at its end: every generated arrival has completed, is in
// flight on a replica, or is still in the shared queue.
func runOpenChecked(t *testing.T, cfg Config, arrival Arrival) OpenLoopResult {
	t.Helper()
	res, ol := runOpenLoop(cfg, arrival)
	if ol.arrivals != ol.served+ol.inFlight+len(ol.queue) {
		t.Fatalf("open loop lost requests: %d arrivals != %d completed + %d in flight + %d queued",
			ol.arrivals, ol.served, ol.inFlight, len(ol.queue))
	}
	return res
}

func TestOpenLoopLightLoad(t *testing.T) {
	// ~500 req/s against a server that sustains thousands: completions
	// must track the offered rate and latency stays near one small-batch
	// service time.
	res := runOpen(t, 500, 2)
	if res.Completed < res.Offered*0.85 || res.Completed > res.Offered*1.15 {
		t.Errorf("completed %.0f req/s, offered %.0f", res.Completed, res.Offered)
	}
	if res.RequestLatency.Len() == 0 {
		t.Fatal("no request latencies recorded")
	}
	// At 500 req/s, batches form far below the 32 maximum.
	if res.MeanBatch > 16 {
		t.Errorf("mean batch = %.1f at light load, want small", res.MeanBatch)
	}
}

func TestOpenLoopSaturation(t *testing.T) {
	light := runOpen(t, 500, 2)
	heavy := runOpen(t, 50_000, 2) // far beyond capacity
	if heavy.Completed >= heavy.Offered*0.9 {
		t.Errorf("server absorbed %.0f of %.0f req/s — should saturate", heavy.Completed, heavy.Offered)
	}
	// Under saturation, batches fill to the maximum and latency explodes.
	if heavy.MeanBatch < 30 {
		t.Errorf("mean batch = %.1f under saturation, want ~32", heavy.MeanBatch)
	}
	if heavy.RequestLatency.P95() <= light.RequestLatency.P95() {
		t.Error("saturated p95 not above light-load p95")
	}
}

// TestOpenLoopPartialBatchAtTimeout pins the batching timeout behaviour:
// when arrivals are sparser than Arrival.Timeout, the oldest request's
// deadline flushes partial (mostly single-request) batches instead of
// waiting for a full one, and a longer timeout buys bigger batches at the
// same rate.
func TestOpenLoopPartialBatchAtTimeout(t *testing.T) {
	m := mustModel(t, "squeezenet")
	run := func(timeoutUs float64) OpenLoopResult {
		return runOpenChecked(t, Config{
			Policy:  policies.KRISPI,
			Workers: []WorkerSpec{{Model: m, Batch: 32}, {Model: m, Batch: 32}},
			Seed:    11,
		}, Arrival{RatePerSec: 400, Timeout: timeoutUs})
	}
	short := run(200) // mean inter-arrival 2.5ms >> 200us timeout
	if short.Completed < short.Offered*0.85 {
		t.Errorf("timeout flush lost requests: completed %.0f of %.0f req/s",
			short.Completed, short.Offered)
	}
	if short.MeanBatch >= 3 {
		t.Errorf("mean batch = %.1f with a 200us timeout at 400 req/s, want ~1", short.MeanBatch)
	}
	long := run(20_000) // 20ms timeout accumulates ~8 arrivals
	if long.MeanBatch <= short.MeanBatch*1.5 {
		t.Errorf("longer timeout did not grow batches: %.1f vs %.1f",
			long.MeanBatch, short.MeanBatch)
	}

	// The timeout is an upper bound on a partial batch's wait: every batch
	// starts no later than its head request's deadline or the moment its
	// worker went idle, whichever is later — also when the head arrived
	// while every worker was busy, or was left over behind a full batch.
	// The tracer's batch spans give each worker's batch starts, ends and
	// sizes; the head arrivals replay the run's Poisson sequence.
	const seed, timeout, end = 42, 500.0, 310_000.0
	for _, rate := range []float64{1500, 3000, 6000} {
		hub := telemetry.NewHub(true)
		runOpenChecked(t, Config{
			Policy:    policies.KRISPI,
			Workers:   []WorkerSpec{{Model: m, Batch: 32}, {Model: m, Batch: 32}},
			Seed:      seed,
			Warmup:    10_000,
			Measure:   end - 10_000,
			Telemetry: hub,
		}, Arrival{RatePerSec: rate, Timeout: timeout})
		var spans []telemetry.Event
		for _, e := range hub.Tracer.Events() {
			if e.Cat == "server" {
				spans = append(spans, e)
			}
		}
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Ts < spans[j].Ts })
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		var arrival sim.Time
		next := func() sim.Time {
			arrival += sim.Duration(rng.ExpFloat64() * 1e6 / rate)
			return arrival
		}
		idle := map[int]sim.Time{} // per worker queue: when its last batch ended
		checked := 0
		for _, s := range spans {
			if s.Ts > end-20_000 {
				break // later batches may still be in flight at the end
			}
			head := next()
			for i := 1; i < int(s.ArgVal); i++ {
				next()
			}
			if bound := math.Max(head+timeout, idle[s.Tid]); s.Ts > bound+1e-6 {
				t.Errorf("rate %.0f: batch of %.0f started at %.1fus, %.1fus past max(head deadline, worker idle)",
					rate, s.ArgVal, s.Ts, s.Ts-bound)
			}
			idle[s.Tid] = s.Ts + s.Dur
			checked++
		}
		if checked < 50 {
			t.Fatalf("rate %.0f: only %d batches checked", rate, checked)
		}
	}
}

// TestOpenLoopSaturationReportsShortfall locks in the saturation contract
// of OpenLoopResult: under extreme overload the result must report
// Completed far below Offered (not silently clip Offered), while the
// server still makes forward progress at its real capacity.
func TestOpenLoopSaturationReportsShortfall(t *testing.T) {
	res := runOpen(t, 200_000, 2)
	if res.Offered != 200_000 {
		t.Errorf("Offered = %.0f, want the configured 200000", res.Offered)
	}
	if res.Completed <= 0 {
		t.Fatal("saturated server made no progress")
	}
	if res.Completed > res.Offered/4 {
		t.Errorf("Completed %.0f req/s not << Offered %.0f under 40x overload",
			res.Completed, res.Offered)
	}
	// Every completed batch is full under saturation.
	if res.MeanBatch < 31 {
		t.Errorf("mean batch = %.1f under extreme overload, want ~32", res.MeanBatch)
	}
}

func TestOpenLoopLatencyMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for _, rate := range []float64{500, 4000, 12000} {
		res := runOpen(t, rate, 2)
		p95 := res.RequestLatency.P95()
		if p95 < prev*0.7 { // allow batching-efficiency wobble
			t.Errorf("p95 dropped sharply from %.0f to %.0f at rate %.0f", prev, p95, rate)
		}
		prev = p95
	}
}

func TestOpenLoopMoreWorkersLowerLatency(t *testing.T) {
	one := runOpen(t, 6000, 1)
	four := runOpen(t, 6000, 4)
	if four.RequestLatency.P95() >= one.RequestLatency.P95() {
		t.Errorf("4-worker p95 %.0f not below 1-worker %.0f at 6k req/s",
			four.RequestLatency.P95(), one.RequestLatency.P95())
	}
}

func TestOpenLoopValidation(t *testing.T) {
	m := mustModel(t, "squeezenet")
	a := mustModel(t, "albert")
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero rate", func() {
		RunOpenLoop(Config{Policy: policies.KRISPI,
			Workers: []WorkerSpec{{Model: m, Batch: 32}}}, Arrival{})
	})
	mustPanic("mixed models", func() {
		RunOpenLoop(Config{Policy: policies.KRISPI,
			Workers: []WorkerSpec{{Model: m, Batch: 32}, {Model: a, Batch: 32}}},
			Arrival{RatePerSec: 100})
	})
}
