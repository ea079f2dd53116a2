// Package server models the paper's custom GPU inference server (§VI-A):
// independent workers that each own one GPU stream (HSA queue) and process
// batches back to back — pre-processing, an inference pass of hundreds of
// kernel calls, then post-processing. One batching core implements that
// loop, the Replica on a Node; three arrival drivers feed it: Run's
// closed-loop client, RunOpenLoop's Poisson queue, and the cluster layer's
// router.
//
// Matching the paper's methodology, Run's load generator is closed-loop
// and drives the server at maximum load: every worker always has a batch
// ready. Measurements are windowed: a warmup phase reaches steady state,
// then throughput, tail latency, and energy are collected over a
// measurement window of virtual time.
package server

import (
	"context"
	"fmt"
	"math"

	"krisp/internal/core"
	"krisp/internal/energy"
	"krisp/internal/faults"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/metrics"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/profile"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
	"krisp/internal/trace"
)

// WorkerSpec describes one model worker.
type WorkerSpec struct {
	Model models.Model
	Batch int
}

// PreprocessUs and PostprocessUs are the CPU-side costs a replica pays
// before and after each batch's kernels.
const (
	PreprocessUs  sim.Duration = 150
	PostprocessUs sim.Duration = 80
)

// Config describes one serving experiment.
type Config struct {
	// Spec is the simulated device; zero value means MI50.
	Spec gpu.DeviceSpec
	// HSA configures the runtime/command-processor cost model; zero value
	// means hsa.DefaultConfig.
	HSA hsa.Config
	// Policy is the spatial partitioning policy under test.
	Policy policies.Kind
	// GPUs is the number of identical devices; workers spread over them
	// round-robin and partitioning applies per device (a ScaleServe-style
	// multi-GPU deployment). Zero means 1.
	GPUs int
	// Workers lists the co-located model workers (all drive max load).
	Workers []WorkerSpec
	// DB is the profiled performance database; built on the fly if nil.
	DB *profile.DB
	// RightSizes, when non-nil, supplies precomputed ModelRightSize results
	// keyed "model/batch" (the key format of fmt.Sprintf("%s/%d", model,
	// batch)); workers missing from the map are profiled on the fly. Grid
	// harnesses share one profiling pass across cells this way.
	RightSizes map[string]int
	// Seed drives the per-worker latency jitter.
	Seed int64
	// Warmup and Measure bound the experiment in virtual time; zero means
	// auto-size from the slowest worker's isolated latency.
	Warmup, Measure sim.Duration
	// MeasureScale scales the auto-sized measurement window (default 1.0;
	// smoke runs use a fraction). Ignored when Measure is set explicitly.
	MeasureScale float64
	// Jitter is the relative amplitude of per-kernel duration noise
	// (default 0.04). Set negative to disable.
	Jitter float64
	// ForceEmulation runs KRISP policies through the emulated
	// stream-masking path (Fig. 11) instead of native hardware support —
	// used to reproduce the paper's §V-B overhead accounting.
	ForceEmulation bool
	// OverlapLimit overrides the KRISP policies' per-kernel overlap limit
	// (the Fig. 16 sensitivity knob); nil keeps the policy default.
	OverlapLimit *int
	// Trace, if non-nil, records worker 0's kernel launches.
	Trace *trace.Trace
	// Telemetry, when non-nil, instruments the whole stack — devices,
	// command processors, runtimes, fault injector, workers — against the
	// hub's registry (and tracer, when present). Nil disables telemetry
	// entirely; results are byte-identical either way, because telemetry
	// only observes and never schedules events or draws randomness.
	Telemetry *telemetry.Hub
	// Faults, when non-nil and non-empty, arms the chaos substrate: the
	// plan's fault timeline is injected on the simulation clock and the
	// hardened serving path (watchdog, bounded retry, degradation ladder,
	// SLO guard) is enabled. A nil or empty plan leaves serving results
	// bit-identical to a build without fault injection.
	Faults *faults.Plan
	// Ctx, when non-nil, lets an external caller (an HTTP request, a
	// deadline) abandon the simulation early; the engine polls it between
	// events and Result.Interrupted reports the abort.
	Ctx context.Context
}

// WorkerStats reports one worker's measurement-window results.
type WorkerStats struct {
	Model string
	Batch int
	// Batches and Requests completed inside the measurement window.
	Batches, Requests int
	// BatchLatency samples the end-to-end batch latencies (microseconds)
	// of batches completing inside the window.
	BatchLatency metrics.Sample
}

// P95 returns the worker's 95th-percentile batch latency in microseconds.
func (w *WorkerStats) P95() float64 { return w.BatchLatency.P95() }

// Result is the outcome of one serving experiment.
type Result struct {
	Policy  policies.Kind
	Workers []WorkerStats
	// WindowUs is the measurement window length.
	WindowUs sim.Duration
	// RPS is aggregate requests per second over the window.
	RPS float64
	// EnergyJ is the energy consumed during the window.
	EnergyJ float64
	// EnergyPerInference is joules per completed request.
	EnergyPerInference float64
	// AvgBusyCUs is the time-weighted mean number of busy CUs.
	AvgBusyCUs float64
	// Oversubscribed marks model-wise configurations whose partitions
	// overlap (the paper's open-circle cases).
	Oversubscribed bool
	// Faults carries fault-injection and hardened-path counters; nil
	// unless Config.Faults held a non-empty plan.
	Faults *faults.Stats
	// Interrupted marks a run abandoned early through Config.Ctx; the
	// windowed metrics then cover only the portion actually simulated.
	Interrupted bool
}

// TotalRequests sums completed requests across workers.
func (r *Result) TotalRequests() int {
	n := 0
	for i := range r.Workers {
		n += r.Workers[i].Requests
	}
	return n
}

// MaxP95 returns the worst per-worker p95 batch latency (us). A
// degenerate run in which no worker completed a single batch inside the
// measurement window (an interrupted or pathologically short experiment)
// returns NaN rather than a misleading 0 — "no data" must not read as
// "infinitely fast". Workers without samples are skipped as long as at
// least one worker measured something.
func (r *Result) MaxP95() float64 {
	worst := math.NaN()
	for i := range r.Workers {
		if r.Workers[i].BatchLatency.Len() == 0 {
			continue
		}
		if p := r.Workers[i].P95(); math.IsNaN(worst) || p > worst {
			worst = p
		}
	}
	return worst
}

// BuildDB profiles every kernel of every worker's model at its batch size —
// the install-time profiling step — and returns the performance database.
func BuildDB(spec gpu.DeviceSpec, workers []WorkerSpec) *profile.DB {
	p := profile.New(profile.Config{Spec: spec, Tolerance: 0.05, LaunchOverhead: 6})
	db := profile.NewDB()
	for _, w := range workers {
		db.Profile(p, w.Model.Sequence(w.Batch))
	}
	return db
}

// Run executes one serving experiment and returns windowed measurements.
func Run(cfg Config) Result { return serve(cfg, nil) }

// serve runs cfg.Workers on a pooled Node, one Replica per worker. The
// arrival driver is the paper's closed loop (each replica is refilled with
// a full batch the moment its previous batch ends) when ol is nil, and
// ol's shared Poisson queue otherwise.
func serve(cfg Config, ol *openLoop) Result {
	if len(cfg.Workers) == 0 {
		panic("server: no workers")
	}
	nc := NodeConfig{
		Spec:      cfg.Spec,
		HSA:       cfg.HSA,
		GPUs:      cfg.GPUs,
		Seed:      cfg.Seed,
		Jitter:    cfg.Jitter,
		Telemetry: cfg.Telemetry,
	}
	nc.setDefaults()
	topo := nc.Spec.Topo
	numGPUs := nc.GPUs
	chaosArmed := !cfg.Faults.Empty()

	// The profiler backs window auto-sizing and on-the-fly right-sizing;
	// a fully specified run (explicit windows, precomputed right-sizes,
	// prebuilt DB) never touches it, so it is built lazily — profiler
	// construction is a measurable slice of a pooled run's setup cost.
	var prof *profile.Profiler
	getProf := func() *profile.Profiler {
		if prof == nil {
			prof = profile.New(profile.Config{Spec: nc.Spec, Tolerance: 0.05, LaunchOverhead: nc.HSA.PacketProcessTime})
		}
		return prof
	}

	// The slowest worker's isolated latency sizes the windows and, when
	// chaos is armed, the watchdog and SLO-guard defaults.
	var slowest sim.Duration
	if cfg.Warmup == 0 || cfg.Measure == 0 || chaosArmed {
		for _, w := range cfg.Workers {
			if l := getProf().ModelLatency(w.Model.Sequence(w.Batch), topo.TotalCUs()); l > slowest {
				slowest = l
			}
		}
		slowest += PreprocessUs + PostprocessUs
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 5 * slowest
	}
	if cfg.Measure == 0 {
		// Enough for ~60 samples per worker at ~3x contention slowdown.
		scale := cfg.MeasureScale
		if scale <= 0 {
			scale = 1
		}
		cfg.Measure = 180 * slowest * scale
	}

	hsaCfg := nc.HSA
	hsaCfg.KernelScoped = cfg.Policy.KernelScoped() && !cfg.ForceEmulation

	// Acquire the run context: a node whose stacks match this run's shape.
	// A pooled context is reset in place with hsaCfg; everything below
	// reapplies the per-run configuration on top of it.
	st := acquireRun(nc, hsaCfg)
	n := st.node
	eng := n.eng
	if cfg.Ctx != nil {
		ctx := cfg.Ctx
		eng.SetInterrupt(func() bool { return ctx.Err() != nil })
	}

	// Per-worker model right-sizes feed the model-granular policies.
	rightSizes := scratchInts(st.rightSizes, len(cfg.Workers))
	st.rightSizes = rightSizes
	if cfg.Policy == policies.ModelRightSize || cfg.Policy == policies.MRSRequest {
		cache := map[string]int{}
		for i, w := range cfg.Workers {
			key := fmt.Sprintf("%s/%d", w.Model.Name, w.Batch)
			rs, ok := cfg.RightSizes[key]
			if !ok {
				rs, ok = cache[key]
				if !ok {
					rs = getProf().ModelRightSize(w.Model.Sequence(w.Batch))
					cache[key] = rs
				}
			}
			rightSizes[i] = rs
		}
	}

	db := cfg.DB
	if db == nil && cfg.Policy.KernelScoped() {
		db = BuildDB(nc.Spec, cfg.Workers)
	}

	// Workers spread over devices round-robin; partitioning policies are
	// applied independently per device (a spatial partition never spans
	// GPUs).
	if cap(st.perGPU) < numGPUs {
		st.perGPU = make([][]int, numGPUs)
	}
	perGPU := st.perGPU[:numGPUs] // worker indices per device
	for g := range perGPU {
		perGPU[g] = perGPU[g][:0]
	}
	for i := range cfg.Workers {
		g := i % numGPUs
		perGPU[g] = append(perGPU[g], i)
	}
	if cap(st.assignments) < len(cfg.Workers) {
		st.assignments = make([]policies.Assignment, len(cfg.Workers))
	}
	assignments := st.assignments[:len(cfg.Workers)]
	anyOversub := false
	for _, idxs := range perGPU {
		if len(idxs) == 0 {
			continue
		}
		rs := make([]int, len(idxs))
		for j, wi := range idxs {
			rs[j] = rightSizes[wi]
		}
		as := policies.Assign(cfg.Policy, topo, rs)
		for j, wi := range idxs {
			assignments[wi] = as[j]
		}
		if policies.Oversubscribed(topo, as) {
			anyOversub = true
		}
	}
	if cfg.OverlapLimit != nil {
		for i := range assignments {
			if assignments[i].Mode == core.ModeNative {
				assignments[i].OverlapLimit = *cfg.OverlapLimit
			}
		}
	}

	// The injector must be on the command processors before the queues'
	// CU-mask IOCTLs below draw on it; its timeline is armed after them.
	if chaosArmed {
		n.setFaults(*cfg.Faults)
	}
	inj := n.inj
	rs := *core.NewRightSizer(db, topo.TotalCUs())

	for len(st.coreTels) < numGPUs {
		st.coreTels = append(st.coreTels, new(core.Telemetry))
	}
	st.measureStart = cfg.Warmup
	st.measureEnd = cfg.Warmup + cfg.Measure
	st.chaos = nil
	st.open = ol
	if cap(st.slots) < len(cfg.Workers) {
		st.slots = make([]runSlot, len(cfg.Workers))
	}
	slots := st.slots[:len(cfg.Workers)]
	for i, w := range cfg.Workers {
		a := assignments[i]
		g := i % numGPUs
		mode := a.Mode
		if cfg.ForceEmulation && mode == core.ModeNative {
			mode = core.ModeEmulated
		}
		rtCfg := core.Config{
			Mode:         mode,
			OverlapLimit: a.OverlapLimit,
			Device:       g,
			Telemetry:    st.coreTels[g].Bind(cfg.Telemetry, g),
		}
		if i == 0 {
			rtCfg.Trace = cfg.Trace
		}
		if inj != nil {
			rtCfg.Hardening = &core.Hardening{
				MaxRetries:         inj.MaxRetries(),
				RetryBackoff:       inj.RetryBackoff(),
				IOCTLFailureStreak: inj.IOCTLFailureStreak(),
				Stats:              &inj.Stats,
			}
		}
		sizer := rs
		if a.FixedPartition > 0 {
			sizer = core.FixedRightSizer(a.FixedPartition, topo.TotalCUs())
		}
		batch := w.Batch
		if ol != nil {
			batch = ol.maxBatch
		}
		r := n.addReplica(ReplicaSpec{Model: w.Model, Batch: batch, GPU: g}, sizer, rtCfg)
		q := r.rt.Queue()
		if !a.QueueMask.IsEmpty() && !a.QueueMask.Equal(gpu.FullMask(topo)) {
			q.SetCUMask(a.QueueMask, nil)
		}
		// Fresh stats every run: the latency Sample escapes into Result,
		// so its backing store must never be recycled.
		slots[i] = runSlot{
			st:    st,
			stats: WorkerStats{Model: w.Model.Name, Batch: w.Batch},
			tel:   newWorkerTelemetry(cfg.Telemetry, w.Model.Name, g, q.ID),
		}
		r.slot = &slots[i]
	}

	// Arm the chaos substrate now that every queue exists: inject the fault
	// timeline and start the SLO guard; each batch start arms its watchdog.
	if inj != nil {
		n.armFaults()
		plan := inj.Plan()
		ch := &chaosHarness{
			eng:          eng,
			stats:        &inj.Stats,
			batchTimeout: plan.WatchdogTimeout,
			window:       plan.SLOWindow,
			p99Threshold: float64(plan.SLOP99),
			cooldown:     plan.SLOCooldown,
			stopAt:       st.measureEnd,
		}
		if reg := cfg.Telemetry.Registry(); reg != nil {
			ch.sloViolations = reg.Counter("krisp_server_slo_violations_total",
				"SLO-guard windows whose p99 exceeded the threshold")
		}
		for _, r := range n.replicas {
			ch.runtimes = append(ch.runtimes, r.rt)
		}
		// Auto-size the hardening deadlines from the slowest worker's
		// isolated latency: generous enough that contention alone never
		// trips them, tight enough that a wedged queue is caught within a
		// handful of batch times.
		if ch.batchTimeout <= 0 {
			ch.batchTimeout = 10 * slowest
		}
		if ch.p99Threshold <= 0 {
			ch.p99Threshold = float64(6 * slowest)
		}
		if ch.window <= 0 {
			ch.window = 10 * slowest
		}
		if ch.cooldown <= 0 {
			ch.cooldown = 2 * ch.window
		}
		st.chaos = ch
		ch.startGuard()
	}

	if ol != nil {
		ol.start(eng, cfg.Seed)
		for _, r := range n.replicas {
			ol.park(r)
		}
	} else {
		for _, r := range n.replicas {
			r.refill()
		}
	}

	// Warm up, then open the measurement window.
	eng.RunUntil(st.measureStart)
	for _, g := range n.gpus {
		g.meter.Reset(eng.Now())
		g.dev.ResetUtilization()
	}
	eng.RunUntil(st.measureEnd)

	var energyJ, busySum float64
	for _, g := range n.gpus {
		energyJ += g.meter.EnergyJ(st.measureEnd)
		busySum += g.dev.AvgBusyCUs()
	}
	result := Result{
		Policy:         cfg.Policy,
		WindowUs:       cfg.Measure,
		EnergyJ:        energyJ,
		AvgBusyCUs:     busySum / float64(numGPUs),
		Oversubscribed: (cfg.Policy == policies.ModelRightSize || cfg.Policy == policies.MRSRequest) && anyOversub,
		Interrupted:    eng.Interrupted(),
	}
	if ol != nil {
		for _, r := range n.replicas {
			ol.inFlight += len(r.queue) + len(r.inflight)
		}
	}
	if inj != nil {
		for _, r := range n.replicas {
			r.rt.FlushDegradedTime()
		}
		stats := inj.Stats
		result.Faults = &stats
	}
	result.Workers = make([]WorkerStats, len(slots))
	for i := range slots {
		result.Workers[i] = slots[i].stats
	}
	result.RPS = metrics.Throughput(result.TotalRequests(), float64(cfg.Measure))
	result.EnergyPerInference = energy.PerInference(result.EnergyJ, result.TotalRequests())
	st.release()
	return result
}

// runSlot is Run's bookkeeping for the replica serving one of
// Config.Workers: the windowed stats, the batch telemetry, and the
// watchdog guarding the batch in flight.
type runSlot struct {
	st    *runState
	stats WorkerStats
	tel   *workerTelemetry
	wd    *watchdog
}

// refill starts the closed loop's next batch: Batch requests arriving now.
func (r *Replica) refill() {
	now := r.node.eng.Now()
	for i := 0; i < r.spec.Batch; i++ {
		r.queue = append(r.queue, pending{arrival: now, enq: now})
	}
	r.maybeStart()
}

// batchDone consumes the completions of the batch r just finished and
// hands the replica back to the arrival driver: the closed loop refills
// it, the open loop parks it until work is queued.
func (s *runSlot) batchDone(r *Replica) {
	st := s.st
	if s.wd != nil {
		s.wd.stop()
		s.wd = nil
	}
	cs := r.completions
	first := cs[0]
	if st.chaos != nil {
		st.chaos.observeBatch(first.End - first.BatchStart)
	}
	s.tel.observeBatch(len(cs), first.BatchStart, first.End)
	inWindow := first.End > st.measureStart && first.End <= st.measureEnd
	if inWindow {
		s.stats.Batches++
		s.stats.Requests += len(cs)
		s.stats.BatchLatency.Add(first.End - first.Arrival)
	}
	r.completions = cs[:0] // cs stays intact until the next batch ends
	if ol := st.open; ol != nil {
		ol.complete(cs, inWindow)
		ol.park(r)
	} else {
		r.refill()
	}
}
