package server

import (
	"math/rand"

	"krisp/internal/metrics"
	"krisp/internal/sim"
)

// Arrival configures open-loop load: requests arrive in a Poisson process
// and are dynamically batched. The paper's evaluation drives the server
// closed-loop at maximum load; open-loop serving is the extension needed
// to study latency under fluctuating request rates (the regime the prior
// works' schedulers target).
type Arrival struct {
	// RatePerSec is the aggregate request arrival rate.
	RatePerSec float64
	// Timeout bounds how long the first queued request waits for
	// companions before a partial batch is dispatched. Zero means 500us.
	Timeout sim.Duration
}

// OpenLoopResult extends Result with request-level latency.
type OpenLoopResult struct {
	Result
	// RequestLatency samples per-request latency (arrival to completion)
	// for requests completing in the measurement window.
	RequestLatency metrics.Sample
	// Offered is the configured arrival rate; Completed the measured
	// completion rate. Completed << Offered means the server saturated.
	Offered, Completed float64
	// MeanBatch is the average formed batch size.
	MeanBatch float64
}

// RunOpenLoop executes a serving experiment under Poisson arrivals. The
// Workers' Model must be identical (one service endpoint); the first
// worker's Batch sets the maximum batch size.
func RunOpenLoop(cfg Config, arrival Arrival) OpenLoopResult {
	out, _ := runOpenLoop(cfg, arrival)
	return out
}

// runOpenLoop is RunOpenLoop that also returns its arrival driver, whose
// request counters let tests check conservation.
func runOpenLoop(cfg Config, arrival Arrival) (OpenLoopResult, *openLoop) {
	if len(cfg.Workers) == 0 {
		panic("server: no workers")
	}
	for _, w := range cfg.Workers[1:] {
		if w.Model.Name != cfg.Workers[0].Model.Name {
			panic("server: open-loop serving requires a single model")
		}
	}
	if arrival.RatePerSec <= 0 {
		panic("server: non-positive arrival rate")
	}
	if arrival.Timeout == 0 {
		arrival.Timeout = 500
	}

	ol := &openLoop{arrival: arrival, maxBatch: cfg.Workers[0].Batch}
	res := serve(cfg, ol)

	out := OpenLoopResult{
		Result:  res,
		Offered: arrival.RatePerSec,
	}
	out.RequestLatency = ol.latency
	out.Completed = metrics.Throughput(ol.completedInWindow, float64(res.WindowUs))
	if ol.batches > 0 {
		out.MeanBatch = float64(ol.served) / float64(ol.batches)
	}
	return out, ol
}

// openLoop is the open-loop arrival driver: a shared Poisson request queue
// that forms dynamic batches and hands each to an idle replica.
type openLoop struct {
	arrival  Arrival
	maxBatch int // largest batch a replica is handed
	rng      *rand.Rand
	eng      *sim.Engine

	queue   []sim.Time // arrival timestamps of waiting requests
	waiting []*Replica // idle replicas parked until work arrives

	// flushArmed marks a pending head-deadline timer; flushFn is its
	// pre-bound callback.
	flushArmed bool
	flushFn    func()

	latency           metrics.Sample
	completedInWindow int
	served, batches   int
	// arrivals counts generated requests; inFlight counts those the
	// replicas still held when the run ended.
	arrivals, inFlight int
}

// start begins the Poisson arrival process.
func (ol *openLoop) start(eng *sim.Engine, seed int64) {
	ol.eng = eng
	ol.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	ol.flushFn = ol.flush
	ol.scheduleNext()
}

func (ol *openLoop) scheduleNext() {
	// Exponential inter-arrival in microseconds.
	mean := 1e6 / ol.arrival.RatePerSec
	d := sim.Duration(ol.rng.ExpFloat64() * mean)
	ol.eng.After(d, func() {
		ol.arrivals++
		ol.queue = append(ol.queue, ol.eng.Now())
		ol.dispatch()
		ol.scheduleNext()
	})
}

// dispatch hands queued requests to parked replicas: a full batch goes at
// once, and so does a partial one whose head has waited out
// Arrival.Timeout. Otherwise, while a replica is parked, one flush timer
// stays armed for the head's deadline, so the timeout bounds every wait —
// also for a head that arrived while every replica was busy, or that was
// left behind a full batch.
func (ol *openLoop) dispatch() {
	for len(ol.waiting) > 0 && len(ol.queue) > 0 {
		deadline := ol.queue[0] + ol.arrival.Timeout
		if len(ol.queue) < ol.maxBatch && ol.eng.Now() < deadline {
			// Heads only get younger, so a pending timer is never later
			// than this deadline; when it fires early, dispatch re-arms.
			if !ol.flushArmed {
				ol.flushArmed = true
				ol.eng.At(deadline, ol.flushFn)
			}
			return
		}
		ol.wake()
	}
}

// flush fires at a head's deadline.
func (ol *openLoop) flush() {
	ol.flushArmed = false
	ol.dispatch()
}

// wake pops a parked replica and gives it a batch of the oldest queued
// requests; dispatch guarantees both exist.
func (ol *openLoop) wake() {
	r := ol.waiting[0]
	ol.waiting = ol.waiting[1:]
	n := len(ol.queue)
	if n > ol.maxBatch {
		n = ol.maxBatch
	}
	now := ol.eng.Now()
	for _, at := range ol.queue[:n] {
		r.queue = append(r.queue, pending{arrival: at, enq: now})
	}
	ol.queue = ol.queue[n:]
	r.maybeStart()
}

// park registers an idle replica and immediately retries dispatch.
func (ol *openLoop) park(r *Replica) {
	ol.waiting = append(ol.waiting, r)
	ol.dispatch()
}

// complete records a finished batch; inWindow marks a batch that ended
// inside the measurement window.
func (ol *openLoop) complete(cs []Completion, inWindow bool) {
	ol.batches++
	ol.served += len(cs)
	if inWindow {
		for _, c := range cs {
			ol.latency.Add(c.End - c.Arrival)
			ol.completedInWindow++
		}
	}
}
