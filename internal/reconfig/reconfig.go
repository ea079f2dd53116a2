// Package reconfig models spatial-partition *resizing* — the paper's
// Fig. 2 comparison between process-scoped partition instances and
// KRISP's kernel-scoped ones.
//
// Process-scoped techniques (MPS/MIG) bind the partition to a process, so
// resizing means: configure a new MPS/MIG instance, start a new ML
// backend process, and reload the model onto the GPU — tens of seconds.
// GSLICE masks the downtime with a shadow instance that is hot-swapped in
// once ready; Gpulet restricts resizes to ~20s epochs. KRISP resizes at
// the next kernel boundary with no reload at all.
//
// Simulate serves a model continuously on the simulated GPU stack, issues
// one resize request mid-batch, and reports when the new partition size
// took effect, how long serving was interrupted, and how many stale
// batches completed at the old size in the meantime.
package reconfig

import (
	"fmt"

	"krisp/internal/alloc"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/kernels"
	"krisp/internal/models"
	"krisp/internal/sim"
)

// Scheme is a partition-resizing mechanism.
type Scheme int

const (
	// Restart is the naive process-scoped path (Fig. 2 top): stop the
	// backend, configure the new instance, restart, reload the model.
	Restart Scheme = iota
	// Shadow is the GSLICE/Gpulet path (Fig. 2 middle): build a fully
	// loaded shadow instance in the background, then hot-swap.
	Shadow
	// KernelScoped is KRISP (Fig. 2 bottom): the next kernel simply
	// launches with the new partition size.
	KernelScoped
)

// Schemes lists all resizing mechanisms.
func Schemes() []Scheme { return []Scheme{Restart, Shadow, KernelScoped} }

func (s Scheme) String() string {
	switch s {
	case Restart:
		return "restart"
	case Shadow:
		return "shadow-instance"
	case KernelScoped:
		return "kernel-scoped"
	default:
		return "unknown"
	}
}

// Costs are the process-scoped reconfiguration overheads, in virtual
// microseconds. Defaults follow the paper's Table II observations
// (2–15s in GSLICE, 10–15s in Gpulet, ~10s for PARIS/ELSA).
type Costs struct {
	// PartitionSetup is MPS/MIG instance (re)configuration.
	PartitionSetup sim.Duration
	// ProcessStart is forking and initializing a fresh ML backend.
	ProcessStart sim.Duration
	// ModelLoad is loading model weights onto the GPU.
	ModelLoad sim.Duration
	// SwapDowntime is the serving pause during a GSLICE hot-swap
	// (the paper reports 50–60us).
	SwapDowntime sim.Duration
}

// DefaultCosts returns a 10s-class reload, matching Table II.
func DefaultCosts() Costs {
	return Costs{
		PartitionSetup: 1.0 * sim.Second,
		ProcessStart:   1.5 * sim.Second,
		ModelLoad:      8.0 * sim.Second,
		SwapDowntime:   55 * sim.Microsecond,
	}
}

// ReloadTime is the total background work before a new process-scoped
// instance can serve.
func (c Costs) ReloadTime() sim.Duration {
	return c.PartitionSetup + c.ProcessStart + c.ModelLoad
}

// Request describes one resize experiment.
type Request struct {
	Model   models.Model
	Batch   int
	FromCUs int
	ToCUs   int
	Costs   Costs
}

// settleBatches is how many batches a resize experiment serves before
// requesting the resize (reaching steady state).
const settleBatches = 3

// Result reports the resize behaviour.
type Result struct {
	Scheme Scheme
	// RequestAt is when the resize was requested (mid-batch).
	RequestAt sim.Time
	// EffectAt is when the first kernel ran at the new partition size.
	EffectAt sim.Time
	// TimeToEffect = EffectAt - RequestAt.
	TimeToEffect sim.Duration
	// Downtime is how long serving was paused because of the
	// reconfiguration (drain-to-reload for Restart, the swap pause for
	// Shadow, zero for KernelScoped).
	Downtime sim.Duration
	// StaleBatches is the number of batches completed at the old
	// partition size after the resize was requested.
	StaleBatches int
}

func (r Result) String() string {
	return fmt.Sprintf("%s: effect after %.3f ms, downtime %.3f ms, %d stale batches",
		r.Scheme, r.TimeToEffect/1000, r.Downtime/1000, r.StaleBatches)
}

// Simulate runs one resize experiment.
func Simulate(scheme Scheme, req Request) Result {
	if req.Batch < 1 {
		req.Batch = models.CalibrationBatch
	}
	if req.Costs == (Costs{}) {
		req.Costs = DefaultCosts()
	}

	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cfg := hsa.DefaultConfig()
	cfg.KernelScoped = scheme == KernelScoped
	cp := hsa.NewCommandProcessor(eng, dev, cfg)

	r := &runner{
		eng:    eng,
		q:      cp.NewQueue(),
		descs:  req.Model.Kernels(req.Batch),
		scheme: scheme,
		costs:  req.Costs,
		settle: settleBatches,
		from:   req.FromCUs,
		to:     req.ToCUs,
		res:    Result{Scheme: scheme, RequestAt: -1, EffectAt: -1},
	}
	topo := dev.Spec.Topo
	r.oldMask = conserved(topo, req.FromCUs)
	r.newMask = conserved(topo, req.ToCUs)
	r.curSize = req.FromCUs
	if scheme != KernelScoped {
		r.q.SetCUMask(r.oldMask, nil)
	}

	r.startBatch()
	eng.Run()
	r.res.TimeToEffect = r.res.EffectAt - r.res.RequestAt
	return r.res
}

func conserved(topo gpu.Topology, n int) gpu.CUMask {
	return alloc.GenerateMask(topo, nil, alloc.Request{
		NumCUs: n, OverlapLimit: alloc.NoOverlapLimit,
	})
}

// runner drives the serving loop: kernels submitted one at a time so the
// partition can change at any kernel boundary.
type runner struct {
	eng    *sim.Engine
	q      *hsa.Queue
	descs  []kernels.Desc
	scheme Scheme
	costs  Costs
	settle int
	from   int
	to     int

	oldMask gpu.CUMask
	newMask gpu.CUMask
	curSize int // partition request for kernel-scoped dispatches

	batches        int
	batchStart     sim.Time
	requested      bool
	restartPending bool
	swapReady      bool
	done           bool

	res Result
}

func (r *runner) startBatch() {
	if r.done {
		return
	}
	r.batchStart = r.eng.Now()
	r.launchKernel(0)
}

func (r *runner) launchKernel(i int) {
	if i >= len(r.descs) {
		r.batchDone()
		return
	}
	partition := 0
	if r.scheme == KernelScoped {
		partition = r.curSize
	}
	r.q.SubmitDispatch(&r.descs[i], partition, alloc.NoOverlapLimit,
		completion(func() { r.launchKernel(i + 1) }), nil,
		func(mask gpu.CUMask) {
			if r.res.EffectAt < 0 && r.requested && mask.Equal(r.newMask) {
				r.res.EffectAt = r.eng.Now()
			}
		})
}

func (r *runner) batchDone() {
	r.batches++
	now := r.eng.Now()
	if r.requested && r.res.EffectAt < 0 {
		r.res.StaleBatches++
	}
	if r.res.EffectAt >= 0 && now > r.res.EffectAt {
		// Two more clean batches after the resize took effect, then stop.
		if r.batches >= r.settle+r.res.StaleBatches+3 {
			r.done = true
			return
		}
	}

	if !r.requested && r.batches == r.settle {
		// Request the resize 40% into the next batch.
		batchTime := (now - 0) / sim.Duration(r.batches)
		r.eng.After(0.4*batchTime, r.requestResize)
		r.startBatch()
		return
	}

	switch {
	case r.restartPending:
		// Drained: tear down, reload, reconfigure, resume.
		r.restartPending = false
		r.res.Downtime += r.costs.ReloadTime()
		r.eng.After(r.costs.ReloadTime(), func() {
			r.q.SetCUMask(r.newMask, r.startBatch)
		})
	case r.swapReady:
		// Shadow instance is loaded: hot-swap with a brief pause.
		r.swapReady = false
		r.res.Downtime += r.costs.SwapDowntime
		r.eng.After(r.costs.SwapDowntime, func() {
			r.q.SetCUMask(r.newMask, r.startBatch)
		})
	default:
		r.startBatch()
	}
}

func (r *runner) requestResize() {
	r.requested = true
	r.res.RequestAt = r.eng.Now()
	switch r.scheme {
	case KernelScoped:
		// The very next kernel packet carries the new partition size.
		r.curSize = r.to
	case Restart:
		r.restartPending = true
	case Shadow:
		// The shadow instance loads in the background; serving continues
		// on the old partition until it is ready.
		r.eng.After(r.costs.ReloadTime(), func() { r.swapReady = true })
	}
}

func completion(fn func()) *hsa.Signal {
	s := hsa.NewSignal(1)
	s.OnDone(fn)
	return s
}
