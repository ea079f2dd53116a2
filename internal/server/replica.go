package server

import (
	"math/rand"
	"slices"

	"krisp/internal/core"
	"krisp/internal/energy"
	"krisp/internal/faults"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/kernels"
	"krisp/internal/models"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// NodeConfig describes one persistent serving node: a multi-GPU stack that
// is stepped externally instead of running one closed-loop experiment to
// completion. The cluster layer (internal/cluster) builds one Node per
// simulated machine and advances them all in lockstep.
type NodeConfig struct {
	// Spec is the device model for every GPU on the node; zero means MI50.
	Spec gpu.DeviceSpec
	// HSA is the runtime cost model; zero means hsa.DefaultConfig.
	HSA hsa.Config
	// GPUs is the number of devices on the node. Zero means 1.
	GPUs int
	// Index is the node's fleet-wide id; it namespaces telemetry labels so
	// devices of different nodes do not collapse into one metric series.
	Index int
	// Seed drives per-replica latency jitter; replicas derive their RNG
	// from it and their creation order, so a node's behaviour depends only
	// on (Seed, submission sequence), never on wall-clock scheduling.
	Seed int64
	// Jitter is the relative per-kernel duration noise (default 0.04;
	// negative disables).
	Jitter float64
	// Telemetry, when non-nil, instruments the node's devices and command
	// processors. Nil disables instrumentation.
	Telemetry *telemetry.Hub
	// Faults, when non-nil and non-empty, arms the node-local chaos
	// substrate (CU kills/degrades, queue stalls, flaky IOCTLs).
	Faults *faults.Plan
}

// Node is a persistent multi-GPU serving stack with its own virtual clock.
// Replicas are added and drained at runtime; the owner advances the clock
// with RunUntil. A Node is single-goroutine: all calls must come from the
// same goroutine (the cluster layer advances distinct nodes concurrently,
// which is safe because nodes share nothing).
type Node struct {
	cfg      NodeConfig
	eng      *sim.Engine
	gpus     []gpuStack
	inj      *faults.Injector
	replicas []*Replica

	// run is the pooled context that owns the node; Release parks it and
	// sets parked, which the next acquire of the context clears.
	run    *runState
	parked bool

	// replicaFree pools gracefully released replicas per GPU (a replica's
	// runtime is bound to one command processor, so reuse never crosses
	// devices). replicaSeq counts every AddReplica ever made and seeds the
	// replica RNG — the same sequence len(replicas) produced before
	// released replicas started leaving the live list.
	replicaFree [][]*Replica
	replicaSeq  int64

	// mail is the node's cross-node command inbox for the cluster's
	// event-horizon scheduler: the router phase posts timestamped request
	// deliveries here instead of scheduling closures, and AdvanceTo
	// ingests them before advancing the clock. mailSeq stamps posting
	// order so simultaneous commands replay in exactly the order the
	// lockstep oracle's router schedules them; mailIdx is the pump's
	// progress cursor through the sorted batch.
	mail    []mail
	mailSeq uint64
	mailIdx int
	pumpFn  func() // pre-bound pump callback, one per node, zero-alloc
}

// gpuStack is one device of a node. devTel and cpTel are the stack's own
// telemetry structs, allocated the first time the node has a registry: a
// pooled node keeps them across runs and rebinds them to each run's hub
// (installing nil when the run has none).
type gpuStack struct {
	meter  *energy.Meter
	dev    *gpu.Device
	cp     *hsa.CommandProcessor
	devTel *gpu.Telemetry
	cpTel  *hsa.Telemetry
}

// NewNode returns a node for cfg with its fault plan, if any, armed and no
// replicas yet. The node comes from the pool that Run shares when one of
// the same shape (device spec, HSA cost model, GPU count) is parked there,
// reset in place; otherwise its devices and command processors are built.
// Release parks it again.
func NewNode(cfg NodeConfig) *Node {
	cfg.setDefaults()
	hsaCfg := cfg.HSA
	hsaCfg.KernelScoped = true // replicas are kernel-scoped partition instances
	n := acquireRun(cfg, hsaCfg).node
	if !cfg.Faults.Empty() {
		n.setFaults(*cfg.Faults)
		n.armFaults()
	}
	return n
}

// Release parks the node for a later NewNode or Run of the same shape.
// Neither the node nor anything it handed out (replicas, completions) may
// be used afterwards, and releasing it twice panics. A node wired to a
// tracing hub is not pooled, because its queues' trace names were fixed
// when they were created.
func (n *Node) Release() {
	if n.parked {
		panic("server: node released twice")
	}
	n.parked = true
	n.run.release()
}

// setDefaults fills the zero fields of a node config with the server
// defaults.
func (cfg *NodeConfig) setDefaults() {
	if cfg.Spec.Topo.TotalCUs() == 0 {
		cfg.Spec = gpu.MI50Spec()
	}
	if cfg.HSA.PacketProcessTime == 0 {
		cfg.HSA = hsa.DefaultConfig()
	}
	if cfg.GPUs < 1 {
		cfg.GPUs = 1
	}
	switch {
	case cfg.Jitter == 0:
		cfg.Jitter = 0.04
	case cfg.Jitter < 0:
		cfg.Jitter = 0
	}
}

// newNode builds the engine and per-GPU stacks of a defaulted config.
// hsaCfg configures the command processors: NewNode forces kernel-scoped
// queues, Run keeps its policy's setting.
func newNode(cfg NodeConfig, hsaCfg hsa.Config) *Node {
	n := &Node{cfg: cfg, eng: sim.New()}
	n.gpus = make([]gpuStack, cfg.GPUs)
	for g := range n.gpus {
		meter := energy.NewMeter(energy.MI50Power())
		dev := gpu.NewDevice(n.eng, cfg.Spec, meter)
		n.gpus[g] = gpuStack{meter: meter, dev: dev, cp: hsa.NewCommandProcessor(n.eng, dev, hsaCfg)}
	}
	n.bindTelemetry()
	return n
}

// bindTelemetry wires every stack's device and processor telemetry to the
// node's hub, fleet-wide GPU ids namespacing the series. Without a
// registry the Bind calls return nil (on a nil receiver too), so this
// installs nothing, and allocates nothing, when telemetry is off.
func (n *Node) bindTelemetry() {
	hub := n.cfg.Telemetry
	for g := range n.gpus {
		s := &n.gpus[g]
		if s.devTel == nil && hub.Registry() != nil {
			s.devTel, s.cpTel = new(gpu.Telemetry), new(hsa.Telemetry)
		}
		id := n.cfg.Index*n.cfg.GPUs + g
		s.dev.SetTelemetry(s.devTel.Bind(hub, n.cfg.Spec.Topo, id))
		s.cp.SetTelemetry(s.cpTel.Bind(hub, id))
	}
}

// setFaults installs an injector for plan on every command processor.
// Its timeline is scheduled separately by armFaults, so Run can create its
// queues (whose CU-mask IOCTLs already draw on the injector) in between.
func (n *Node) setFaults(plan faults.Plan) {
	n.inj = faults.NewInjector(n.eng, plan)
	n.inj.SetTelemetry(faults.NewTelemetry(n.cfg.Telemetry))
	for _, g := range n.gpus {
		g.cp.SetFaults(n.inj)
	}
}

// armFaults schedules the installed injector's fault timeline.
func (n *Node) armFaults() {
	devs := make([]*gpu.Device, len(n.gpus))
	cps := make([]*hsa.CommandProcessor, len(n.gpus))
	for g := range n.gpus {
		devs[g] = n.gpus[g].dev
		cps[g] = n.gpus[g].cp
	}
	n.inj.Arm(devs, cps)
}

// Now returns the node's virtual clock.
func (n *Node) Now() sim.Time { return n.eng.Now() }

// RunUntil advances the node's clock to t, firing every pending event.
func (n *Node) RunUntil(t sim.Time) { n.eng.RunUntil(t) }

// Schedule runs fn on the node's clock at time t (clamped to now if t has
// already passed). The cluster layer uses it to deliver requests at their
// exact arrival timestamps between the lockstep oracle's advances.
func (n *Node) Schedule(t sim.Time, fn func()) {
	if t < n.eng.Now() {
		t = n.eng.Now()
	}
	n.eng.At(t, fn)
}

// mail is one posted cross-node command: a request copy delivered to a
// replica at virtual time deliver, stamped with its original arrival.
// deliver and arrival differ when the router re-sends a request that
// queued router-side: delivery is clamped to the router clock, but the
// request's latency still counts from its true arrival — the same split
// lockstep got from Schedule's clamp around an unclamped SubmitID.
type mail struct {
	deliver sim.Time
	arrival sim.Time
	seq     uint64 // posting order; tie-break among equal delivery times
	rep     *Replica
	id      uint64
	// SubmitSeq payload: the sequence lengths (ignored by a classic
	// replica) and whether this is a disaggregated KV handoff joining
	// decode directly.
	prompt, output int
	prefilled      bool
}

// Post queues one request copy for the replica, to be ingested by the
// next AdvanceTo as r.SubmitSeq(arrival, id, prompt, output, prefilled) —
// a classic replica takes that as SubmitID(arrival, id); id 0 is an
// untracked request. The caller (the cluster's router phase) must post
// with deliver no earlier than the node's last granted horizon — Schedule
// clamps past arrivals to the node clock, so mailbox callers clamp to the
// router's own clock before posting.
func (n *Node) Post(deliver, arrival sim.Time, r *Replica, id uint64, prompt, output int, prefilled bool) {
	n.mailSeq++
	n.mail = append(n.mail, mail{
		deliver: deliver, arrival: arrival, seq: n.mailSeq, rep: r, id: id,
		prompt: prompt, output: output, prefilled: prefilled,
	})
}

// NextEventTime exposes the engine's earliest pending event — the wake
// key the event-horizon scheduler files an idle node under until mail
// lowers it.
func (n *Node) NextEventTime() (sim.Time, bool) { return n.eng.NextEventTime() }

// pump applies every mailbox command whose timestamp has arrived. It runs
// as an engine event (one firing per distinct command timestamp), so the
// deliveries interleave with the node's own events exactly where the
// lockstep oracle's per-command closures do.
func (n *Node) pump() {
	now := n.eng.Now()
	for n.mailIdx < len(n.mail) && n.mail[n.mailIdx].deliver <= now {
		m := n.mail[n.mailIdx]
		n.mailIdx++
		m.rep.SubmitSeq(m.arrival, m.id, m.prompt, m.output, m.prefilled)
	}
}

// AdvanceTo ingests the mailbox and advances the node's clock to t, firing
// every event with timestamp <= t. Commands are replayed in (time, posting
// order) — byte-identical to the lockstep oracle scheduling each command as
// its own closure, because the pump events are created before any
// event the advancement itself schedules and therefore rank first among
// ties, exactly like the router-phase closures did. Every posted command
// must have deliver <= t; AdvanceTo panics if mail would be left
// undelivered, because a partially drained mailbox cannot be re-sorted
// safely.
func (n *Node) AdvanceTo(t sim.Time) {
	if len(n.mail) > 0 {
		// Insertion sort by (deliver, seq): postings arrive almost sorted
		// (the router walks arrivals in time order), so this is near-linear
		// and allocation-free.
		for i := 1; i < len(n.mail); i++ {
			m := n.mail[i]
			j := i - 1
			for j >= 0 && (n.mail[j].deliver > m.deliver || (n.mail[j].deliver == m.deliver && n.mail[j].seq > m.seq)) {
				n.mail[j+1] = n.mail[j]
				j--
			}
			n.mail[j+1] = m
		}
		if n.pumpFn == nil {
			n.pumpFn = n.pump
		}
		last := sim.Time(-1)
		for _, m := range n.mail {
			if m.deliver != last {
				n.eng.At(m.deliver, n.pumpFn)
				last = m.deliver
			}
		}
	}
	n.eng.RunUntil(t)
	if n.mailIdx != len(n.mail) {
		panic("server: AdvanceTo horizon left mailbox commands undelivered")
	}
	for i := range n.mail {
		n.mail[i].rep = nil
	}
	n.mail = n.mail[:0]
	n.mailIdx = 0
}

// NumGPUs returns the node's device count.
func (n *Node) NumGPUs() int { return n.cfg.GPUs }

// TotalCUs returns the per-device CU count.
func (n *Node) TotalCUs() int { return n.cfg.Spec.Topo.TotalCUs() }

// EnergyJ sums energy consumed across the node's devices up to now.
func (n *Node) EnergyJ() float64 {
	total := 0.0
	for _, g := range n.gpus {
		total += g.meter.EnergyJ(n.eng.Now())
	}
	return total
}

// ReplicaSpec describes one model replica: a gpulet bound to a device with
// a fixed CU budget, served through a kernel-scoped partition instance (so
// resizing it later is free — the next kernel simply uses the new size).
type ReplicaSpec struct {
	Model models.Model
	// Batch is the maximum dynamic batch size.
	Batch int
	// GPU is the device index on the node.
	GPU int
	// CUs is the partition budget; 0 or >= the device size means the full
	// device.
	CUs int
	// OverlapLimit bounds allocated-but-busy CUs per kernel (0 = KRISP-I
	// isolation, alloc.NoOverlapLimit = KRISP-O).
	OverlapLimit int
	// LLM, when non-nil, turns the replica into a continuous-batching
	// autoregressive engine (see LLMSpec). Batch is then overridden by
	// LLM.MaxSeqs and requests arrive via SubmitSeq.
	LLM *LLMSpec
}

// Completion is one finished request, reported in node-local virtual time.
type Completion struct {
	// ID is the caller-assigned request identity (0 for untracked submits).
	ID           uint64
	Arrival, End sim.Time
	// Stage boundaries for latency attribution: when the copy reached the
	// replica's queue, when its batch latched, and when the kernel sequence
	// started and finished. Always stamped (plain value copies of clocks the
	// lifecycle reads anyway), so sampled request journeys cost the node
	// side nothing extra.
	Enqueued    sim.Time
	BatchStart  sim.Time
	KernelStart sim.Time
	KernelEnd   sim.Time
	// Cancelled marks a copy revoked by Cancel while its batch was already
	// in flight: the work ran to the batch boundary, but the result must not
	// count as a served request.
	Cancelled bool
	// LLM fields, zero for classic requests. FirstToken is when the first
	// generated token after the last (re)admission left the batch; Tokens
	// counts generated tokens; Prompt/Output echo the request's lengths so
	// the routing layer can bill KV handoffs without a side table.
	FirstToken     sim.Time
	Prompt, Output int
	Tokens         int
}

// ReplicaStats is a point-in-time view of a replica's load.
type ReplicaStats struct {
	// Queued counts requests waiting to be batched; InFlight counts
	// requests inside the batch currently being served.
	Queued, InFlight int
	// CompletedRequests / CompletedBatches are lifetime totals.
	CompletedRequests, CompletedBatches int
	// Dropped counts requests discarded by Kill.
	Dropped int
	// Cancelled counts requests revoked by Cancel (dequeued or suppressed
	// at the batch boundary).
	Cancelled int
	// Preempted counts LLM sequences evicted from the continuous batch to
	// reclaim KV-cache space (each later resumes from its last committed
	// token).
	Preempted int
}

// Outstanding is the replica-side count of accepted-but-unfinished
// requests.
func (s ReplicaStats) Outstanding() int { return s.Queued + s.InFlight }

// Replica is one gpulet instance on a Node: it owns an HSA queue and a
// kernel-scoped runtime capped at the gpulet's CU budget, dynamically
// batches submitted requests, and reports completions for the router to
// pull at tick boundaries (pull-based so concurrent node advancement never
// calls back into shared router state).
type Replica struct {
	node *Node
	spec ReplicaSpec
	rt   *core.Runtime
	rng  *rand.Rand

	queue    []pending // requests waiting for a batch slot
	inflight []pending
	busy     bool
	draining bool
	killed   bool

	completions []Completion
	stats       ReplicaStats

	// descCache[n] is the model's shared kernel sequence for an n-request
	// batch (models.Model.Sequence), looked up on first use. Kernel
	// geometry depends only on the batch size, so partial batches (the tail
	// of a drained queue, a trickle workload) hit the cache too instead of
	// taking the recipe's lock every batch.
	descCache [][]kernels.Desc
	descBuf   []kernels.Desc

	// The replica serves one dynamic batch at a time, so the batch
	// lifecycle lives in fields driven by pre-bound hooks instead of a
	// per-batch closure chain. curBatch is latched at batch start: Kill
	// clears inflight while the pre-processing event is still pending, so
	// the size must not be re-read when the hook fires.
	curBatch int
	preFn    func()
	seqFn    func()
	postFn   func()
	// Batch stage boundaries, latched alongside curBatch and copied into
	// every completion of the batch.
	curStart     sim.Time
	curKernStart sim.Time
	curKernEnd   sim.Time

	// llm, when non-nil, replaces the fixed-batch lifecycle with the
	// continuous-batching token loop (see llm.go). The classic queue holds
	// waiting sequences; busy covers the in-flight token step.
	llm *llmEngine

	// slot, when non-nil, is Run's bookkeeping for the worker this replica
	// serves (see server.go); fleet replicas have none.
	slot *runSlot
}

// AddReplica creates a replica on the node. The spec's GPU must exist.
func (n *Node) AddReplica(spec ReplicaSpec) *Replica {
	if spec.GPU < 0 || spec.GPU >= len(n.gpus) {
		panic("server: replica GPU out of range")
	}
	if spec.LLM != nil {
		// Copy the LLM spec so defaulting never mutates the caller's.
		l := *spec.LLM
		if l.MaxSeqs < 1 {
			l.MaxSeqs = 8
		}
		spec.LLM = &l
		spec.Batch = l.MaxSeqs
	}
	if spec.Batch < 1 {
		spec.Batch = models.CalibrationBatch
	}
	total := n.cfg.Spec.Topo.TotalCUs()
	if spec.CUs <= 0 || spec.CUs > total {
		spec.CUs = total
	}
	sizer := core.NewFixedRightSizer(spec.CUs, total)
	if l := spec.LLM; l != nil && (l.PrefillCUs > 0 || l.DecodeCUs > 0) {
		// Kernel-wise per-phase right-sizing: prefill kernels get one
		// partition size, decode kernels another, untagged kernels the
		// sizer's fallback.
		pf, dc := l.PrefillCUs, l.DecodeCUs
		if pf <= 0 {
			pf = spec.CUs
		}
		if dc <= 0 {
			dc = spec.CUs
		}
		sizer = core.NewPhaseRightSizer(pf, dc, total)
	}
	r := n.addReplica(spec, sizer, core.Config{
		Mode:         core.ModeNative,
		OverlapLimit: spec.OverlapLimit,
		Device:       n.cfg.Index*n.cfg.GPUs + spec.GPU,
	})
	if spec.LLM != nil {
		if r.llm == nil {
			r.llm = &llmEngine{}
			r.llm.kickFn = r.llmKick
			r.llm.stepFn = r.llmStepDone
			r.llm.retryFn = r.llmRetry
		}
		r.llm.reset(*spec.LLM)
	} else {
		r.llm = nil
	}
	return r
}

// addReplica binds a replica to a fresh queue on spec.GPU with the given
// sizer and runtime config: AddReplica's gpulet defaults, or the policy
// assignment of one of Run's workers. The replica RNG is seeded from the
// node seed and the replica's creation order.
func (n *Node) addReplica(spec ReplicaSpec, sizer *core.RightSizer, rtCfg core.Config) *Replica {
	stack := n.gpus[spec.GPU]
	q := stack.cp.NewQueue()
	seed := n.cfg.Seed + n.replicaSeq*7919 + 1
	n.replicaSeq++
	var r *Replica
	if free := n.replicaFree; spec.GPU < len(free) && len(free[spec.GPU]) > 0 {
		// Reuse a released replica from this GPU's pool: reseed its RNG in
		// place, rebind its runtime to the fresh queue, and drop the
		// batch-sequence cache, which belonged to the previous spec.
		last := len(free[spec.GPU]) - 1
		r = free[spec.GPU][last]
		free[spec.GPU][last] = nil
		n.replicaFree[spec.GPU] = free[spec.GPU][:last]
		clear(r.descCache)
		r.spec = spec
		r.rng.Seed(seed)
		r.rt.Reconfigure(q, sizer, rtCfg)
	} else {
		r = &Replica{
			node: n,
			spec: spec,
			rt:   core.NewRuntime(n.eng, stack.cp, q, sizer, rtCfg),
			rng:  rand.New(rand.NewSource(seed)),
		}
	}
	n.replicas = append(n.replicas, r)
	return r
}

// Release returns a gracefully drained replica to its node's pool: the HSA
// queue goes back to the command processor and the replica struct (runtime,
// RNG, buffers) is recycled by a later AddReplica on the same GPU. Only a
// quiescent replica can be released — drained, never killed, with all
// completions already pulled. A killed replica still has in-flight engine
// events bound to it, so Release refuses it and the caller simply leaks it.
func (r *Replica) Release() {
	if r.killed || !r.Drained() || len(r.completions) > 0 || len(r.inflight) > 0 {
		return
	}
	n := r.node
	n.gpus[r.spec.GPU].cp.ReleaseQueue(r.rt.Queue())
	for i, x := range n.replicas {
		if x == r {
			last := len(n.replicas) - 1
			n.replicas[i] = n.replicas[last]
			n.replicas[last] = nil
			n.replicas = n.replicas[:last]
			break
		}
	}
	r.recycle()
}

// recycle clears a replica's serving state and parks it on its GPU's free
// list for a later AddReplica.
func (r *Replica) recycle() {
	r.queue = r.queue[:0]
	r.inflight = r.inflight[:0]
	r.completions = r.completions[:0]
	r.busy = false
	r.draining = false
	r.killed = false
	r.stats = ReplicaStats{}
	r.curBatch = 0
	r.slot = nil
	n := r.node
	if n.replicaFree == nil {
		n.replicaFree = make([][]*Replica, len(n.gpus))
	}
	n.replicaFree[r.spec.GPU] = append(n.replicaFree[r.spec.GPU], r)
}

// Spec returns the replica's placement spec.
func (r *Replica) Spec() ReplicaSpec { return r.spec }

// pending is one accepted-but-unfinished request copy. enq is the node
// clock at enqueue — the boundary between fabric transit and queue wait in
// the request's stage breakdown.
type pending struct {
	arrival   sim.Time
	enq       sim.Time
	id        uint64
	cancelled bool
	// LLM request payload, zero for classic requests. done carries the
	// committed token count across a preemption so a resumed sequence
	// re-prefills its context instead of starting over; prefilled marks a
	// disaggregated handoff that skips the local prefill pass.
	prompt, output, done int
	prefilled            bool
}

// Submit enqueues one untracked request that arrived at the given
// node-local time. It returns false — and accepts nothing — once the
// replica is draining or killed. Callers must only submit at or before the
// node's current clock.
func (r *Replica) Submit(arrival sim.Time) bool {
	return r.SubmitID(arrival, 0)
}

// SubmitID enqueues one request tagged with a caller-assigned identity, so
// the copy can later be revoked with Cancel and its completion matched to
// the logical request (hedged sends create two copies with the same id on
// different replicas).
func (r *Replica) SubmitID(arrival sim.Time, id uint64) bool {
	if r.llm != nil {
		// An untracked/classic submit on an LLM replica becomes a minimal
		// one-token sequence so the token loop stays the only lifecycle.
		return r.SubmitSeq(arrival, id, 1, 1, false)
	}
	if r.draining || r.killed {
		return false
	}
	// Enqueue stamp: the node clock, floored at the arrival — a caller
	// submitting ahead of the clock (direct harness use) must not produce a
	// negative transit stage.
	enq := r.node.eng.Now()
	if enq < arrival {
		enq = arrival
	}
	r.queue = append(r.queue, pending{arrival: arrival, enq: enq, id: id})
	r.maybeStart()
	return true
}

// CancelOutcome reports what Cancel found.
type CancelOutcome uint8

const (
	// CancelNotFound means no live copy with that id exists here (already
	// completed, never submitted, or killed with the replica).
	CancelNotFound CancelOutcome = iota
	// CancelDequeued means the copy was still queued and was removed before
	// consuming any GPU time.
	CancelDequeued
	// CancelInFlight means the copy's batch is already running: the work
	// completes at the batch boundary, but its completion will carry
	// Cancelled=true and must not be counted. There is no mid-kernel recall
	// — the batch boundary is the abort granularity, the serving analog of
	// cancelling generation at a token boundary.
	CancelInFlight
)

// Cancel revokes the copy with the given id (the losing side of a hedge).
// Queued copies are dequeued outright; in-flight copies are suppressed at
// the batch boundary. id 0 (untracked) is never cancellable.
func (r *Replica) Cancel(id uint64) CancelOutcome {
	if id == 0 || r.killed {
		return CancelNotFound
	}
	for i := range r.queue {
		if r.queue[i].id == id {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			r.stats.Cancelled++
			return CancelDequeued
		}
	}
	for i := range r.inflight {
		if r.inflight[i].id == id && !r.inflight[i].cancelled {
			r.inflight[i].cancelled = true
			r.stats.Cancelled++
			return CancelInFlight
		}
	}
	if r.llm != nil {
		// A resident LLM sequence retires at the next token boundary, the
		// autoregressive analog of the batch-boundary abort.
		for i := range r.llm.active {
			if r.llm.active[i].id == id && !r.llm.active[i].cancelled {
				r.llm.active[i].cancelled = true
				r.stats.Cancelled++
				return CancelInFlight
			}
		}
	}
	return CancelNotFound
}

// Drain stops admission; queued and in-flight requests still complete.
func (r *Replica) Drain() { r.draining = true }

// Draining reports whether the replica has stopped admission.
func (r *Replica) Draining() bool { return r.draining }

// Drained reports whether a draining (or killed) replica has no work left.
func (r *Replica) Drained() bool {
	return (r.draining || r.killed) && !r.busy && len(r.queue) == 0 &&
		(r.llm == nil || len(r.llm.active) == 0)
}

// Kill drops the replica immediately — queued and in-flight requests are
// discarded (a node crash, not a graceful drain) — and returns how many
// requests were lost. The in-flight batch's simulation events still fire,
// but their completions are suppressed.
func (r *Replica) Kill() int {
	if r.killed {
		return 0
	}
	r.killed = true
	r.draining = true
	lost := len(r.queue) + len(r.inflight)
	if r.llm != nil {
		lost += len(r.llm.active)
		for i := range r.llm.active {
			r.llmFreeKV(r.llm.active[i].kv)
		}
		r.llm.active = r.llm.active[:0]
	}
	r.stats.Dropped += lost
	r.queue = r.queue[:0]
	r.inflight = r.inflight[:0]
	return lost
}

// Stats returns the replica's current load counters.
func (r *Replica) Stats() ReplicaStats {
	s := r.stats
	s.Queued = len(r.queue)
	s.InFlight = len(r.inflight)
	return s
}

// TakeCompletions appends completions recorded since the last call to buf
// and clears the internal list. Pull, don't push: the cluster collects
// completions at tick boundaries, after concurrent node advancement has
// finished, keeping the router single-threaded and deterministic.
func (r *Replica) TakeCompletions(buf []Completion) []Completion {
	buf = append(buf, r.completions...)
	r.completions = r.completions[:0]
	return buf
}

// maybeStart launches the next dynamic batch when the replica is idle.
func (r *Replica) maybeStart() {
	if r.llm != nil {
		r.llmMaybeStep()
		return
	}
	if r.busy || r.killed || len(r.queue) == 0 {
		return
	}
	n := len(r.queue)
	if n > r.spec.Batch {
		n = r.spec.Batch
	}
	r.inflight = append(r.inflight[:0], r.queue[:n]...)
	r.queue = r.queue[:copy(r.queue, r.queue[n:])]
	r.busy = true
	r.curBatch = n
	r.curStart = r.node.eng.Now()
	if r.preFn == nil {
		r.preFn = r.preDone
		r.seqFn = r.seqDone
		r.postFn = r.postDone
	}
	if s := r.slot; s != nil && s.st.chaos != nil {
		s.wd = s.st.chaos.armWatchdog(r.rt)
	}
	r.node.eng.After(PreprocessUs, r.preFn)
}

// preDone fires when pre-processing completes: submit the latched batch's
// kernel sequence (the batch may have been killed meanwhile — the work
// still runs, its completions are suppressed in postDone).
func (r *Replica) preDone() {
	r.curKernStart = r.node.eng.Now()
	r.rt.RunSequence(r.batchKernels(r.curBatch), r.seqFn)
}

// seqDone fires when the last kernel completes: pay post-processing.
func (r *Replica) seqDone() {
	r.curKernEnd = r.node.eng.Now()
	r.node.eng.After(PostprocessUs, r.postFn)
}

// postDone closes out the batch, records completions, and starts the next
// batch if requests queued up meanwhile.
func (r *Replica) postDone() {
	r.busy = false
	if r.killed {
		r.inflight = r.inflight[:0]
		return
	}
	end := r.node.eng.Now()
	served := 0
	for _, p := range r.inflight {
		r.completions = append(r.completions, Completion{
			ID: p.id, Arrival: p.arrival, End: end, Cancelled: p.cancelled,
			Enqueued: p.enq, BatchStart: r.curStart,
			KernelStart: r.curKernStart, KernelEnd: r.curKernEnd,
		})
		if !p.cancelled {
			served++
		}
	}
	r.stats.CompletedBatches++
	r.stats.CompletedRequests += served
	r.inflight = r.inflight[:0]
	if r.slot != nil {
		r.slot.batchDone(r)
	}
	r.maybeStart()
}

// batchKernels returns the model's kernel sequence for an n-request batch
// with per-instance duration noise, reusing the replica's buffers. The
// sequences belong to the model's recipe and are shared read-only by every
// replica in the process; the jitter pass writes into the replica's own
// scratch.
func (r *Replica) batchKernels(n int) []kernels.Desc {
	if len(r.descCache) != r.spec.Batch+1 {
		r.descCache = slices.Grow(r.descCache[:0], r.spec.Batch+1)[:r.spec.Batch+1]
		clear(r.descCache)
	}
	base := r.descCache[n]
	if base == nil {
		base = r.spec.Model.Sequence(n)
		r.descCache[n] = base
	}
	if r.node.cfg.Jitter == 0 {
		return base
	}
	if cap(r.descBuf) < len(base) {
		r.descBuf = make([]kernels.Desc, len(base))
	}
	out := r.descBuf[:len(base)]
	for i := range base {
		f := 1 + r.node.cfg.Jitter*(2*r.rng.Float64()-1)
		out[i] = base[i]
		out[i].Work.WGTime *= sim.Duration(f)
	}
	return out
}
