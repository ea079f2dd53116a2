// Package cluster is the fleet layer above the single-node KRISP stack: a
// set of simulated multi-GPU nodes behind an SLO-aware front-end router,
// with a gpulet placer and an epoch-driven autoscaler above the per-device
// CU-mask layer.
//
// KRISP right-sizes kernels on one GPU; serving millions of users takes
// many GPUs across many nodes, and the decisions that matter there are
// which partition of which GPU serves each request (ParvaGPU's regime) and
// when placements change. The fleet controller runs in fixed ticks:
// requests arrive from deterministic workload generators, the router
// admits and places them, the nodes with work due inside the tick
// simulate one after another on the tick goroutine (each owns its engine;
// the package starts no goroutines), and at epoch boundaries the
// autoscaler replans against the trace, paying reconfig costs for
// migrations and draining replicas on injected node faults.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
	"krisp/internal/faults"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/metrics"
	"krisp/internal/models"
	"krisp/internal/profile"
	"krisp/internal/reconfig"
	"krisp/internal/sched"
	"krisp/internal/server"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
	"math/rand"
)

// Workload is one model's serving requirement: a rate profile plus an SLO.
type Workload struct {
	Model models.Model
	// Batch is the replica batch size. Zero means the calibration batch.
	Batch int
	// Gen is the request-rate profile driving both the arrival process and
	// the autoscaler's forecasts.
	Gen workload.Generator
	// SLOUs is the per-request latency SLO in virtual microseconds; zero
	// auto-sizes from the profiled isolated latency (2x the planner's QoS
	// target plus the CPU-side batch costs). LLM workloads auto-size from
	// the expected full-sequence latency (prefill plus mean-output decode
	// steps) instead.
	SLOUs sim.Duration
	// LLM, when non-nil, makes this an autoregressive workload: requests
	// become sequences, replicas run continuous batching with KV
	// accounting, and the autoscaler sizes per phase. Model and Batch are
	// derived from it when left zero.
	LLM *LLMWorkload
}

// Config describes one fleet experiment.
type Config struct {
	// Nodes and GPUsPerNode shape the fleet. Defaults: 3 nodes, 2 GPUs.
	Nodes, GPUsPerNode int
	// Spec is the device model for every GPU; zero means MI50.
	Spec gpu.DeviceSpec
	// HSA is the runtime cost model; zero means hsa.DefaultConfig.
	HSA hsa.Config
	// Workloads lists the served models.
	Workloads []Workload
	// Policy is the routing policy under test.
	Policy Policy
	// Tick is the router's control interval: completions are pulled,
	// queues drained, and arrivals routed once per tick. Zero means 2ms.
	Tick sim.Duration
	// Epoch is the autoscaler's replanning interval. Zero means 25 ticks.
	Epoch sim.Duration
	// Duration is total simulated fleet time. Zero means 6 epochs.
	Duration sim.Duration
	// Seed drives every random draw (arrivals, jitter, p2c sampling).
	Seed int64
	// Telemetry, when non-nil, exposes fleet gauges and counters (and the
	// per-node serving stacks) on the hub's registry.
	Telemetry *telemetry.Hub
	// NodeFaults is the cluster-level fault timeline: node crashes and
	// GPU-wide degradations.
	NodeFaults []faults.NodeFault
	// Costs is the reconfiguration cost model; zero means
	// reconfig.DefaultCosts (10s-class reloads).
	Costs reconfig.Costs
	// Headroom pads the autoscaler's forecast rates so the fleet keeps
	// slack for Poisson bursts and for the router to steer around slow
	// replicas. Zero means 1.2 (20% overprovisioning); values below 1 are
	// clamped to 1 (no headroom).
	Headroom float64
	// RecordRouting captures every routing decision into
	// Result.RoutingLog — the determinism tests compare these byte for
	// byte across repeated runs and against the lockstep oracle.
	RecordRouting bool
	// Gateway, when non-nil, fronts the router with the resilience layer:
	// per-tenant rate limiting, circuit breakers, hedging under a retry
	// budget, and deadline admission. Nil runs the bare router (the PR5
	// baseline).
	Gateway *gateway.Config
	// Tenants is the traffic mix: arrivals are attributed to tenants in
	// proportion to their weights. Empty means a single tenant 0. The mix
	// is independent of gateway entitlement, so a tenant can offer more
	// than its admitted share and be shed back down.
	Tenants []workload.TenantShare
	// Obs, when non-nil, enables the observability layer: sampled request
	// journeys with per-stage latency attribution, per-model SLO burn-rate
	// monitors, and the anomalous-journey flight recorder. Nil (or a fully
	// disabled value) leaves the run byte-identical to a fleet without it.
	Obs *Observability
}

// ModelResult is one model's fleet-level outcome.
type ModelResult struct {
	Model         string
	Arrivals      int
	Routed        int
	Rejected      int
	Completed     int
	SLOViolations int
	// TokensOut counts generated tokens across served requests (LLM
	// workloads only; classic models report zero).
	TokensOut int
	// Latency samples per-request latency (arrival to completion, us).
	Latency metrics.Sample
}

// Result is the outcome of one fleet run.
type Result struct {
	Policy   Policy
	Duration sim.Duration
	Epochs   int

	Arrivals      int
	Routed        int
	Rejected      int
	Completed     int
	Failed        int // lost to node faults
	SLOViolations int

	Migrations int
	Resizes    int
	Drains     int
	Unplaced   int
	NodeFaults int

	// ProcessScopedReload / KernelScopedReload are the cumulative
	// reconfiguration bills of the epoch replans under the two regimes
	// (Fig. 2 at fleet scale): process-scoped instances reload on every
	// resize and migration; kernel-scoped ones only load models on moves.
	ProcessScopedReload sim.Duration
	KernelScopedReload  sim.Duration

	// LLM serving counters, all zero without LLM workloads. TokensOut is
	// the fleet's generated-token total; KVHandoffs/KVHandoffUs bill the
	// prefill→decode KV-cache transfers of disaggregated fleets (the
	// migration-class cost of splitting the phases); Preemptions counts
	// sequences evicted from a replica's KV budget and requeued.
	TokensOut   int
	KVHandoffs  int
	KVHandoffUs sim.Duration
	Preemptions int

	// Latency aggregates per-request latency across models.
	Latency  metrics.Sample
	PerModel []ModelResult

	// EnergyJ sums node energy over the run.
	EnergyJ float64

	// RoutingLog holds one line per routing decision when
	// Config.RecordRouting was set.
	RoutingLog string

	// Gateway is the resilience layer's decision record (nil without one).
	Gateway *gateway.Stats
}

// BadRequests is the fleet quality metric the router policies compete on:
// requests that were rejected, lost, or completed past their SLO.
func (r *Result) BadRequests() int { return r.Rejected + r.Failed + r.SLOViolations }

// GoodputRPS is the rate of requests completed within their SLO.
func (r *Result) GoodputRPS() float64 {
	return metrics.Throughput(r.Completed-r.SLOViolations, float64(r.Duration))
}

// fleetNode is one simulated machine plus its fleet-side state.
type fleetNode struct {
	id        int
	node      *server.Node
	up        bool
	downUntil sim.Time // <0: down for good
	handles   []*replicaHandle

	// Event-horizon scheduler state: the node's position and key in the
	// fleet's wake heap (heapIdx -1 when out — down, or mid-advancement),
	// and the heap itself so mail posts can lower the key in place. hz is
	// nil under the lockstep oracle, which posts no mail.
	wake    sim.Time
	heapIdx int
	hz      *wakeHeap
}

// Fleet is a configured cluster experiment. Build with New, execute with
// Run.
type Fleet struct {
	cfg     Config
	planner *sched.Planner
	nodes   []*fleetNode
	router  *router
	scaler  *autoscaler
	obs     *fleetObserver
	res     *Result

	handles   []*replicaHandle // live + draining, ascending id
	handleSeq int

	// gw is the resilience gateway (nil without one); handleByID resolves
	// the replica ids the gateway speaks back into handles.
	gw         *gateway.Gateway
	handleByID map[int]*replicaHandle

	downFaults []faults.NodeFault // NodeDown timeline, ascending At
	faultIdx   int

	arrivalRngs []*rand.Rand
	arrivalBufs [][]workload.TenantArrival
	lenBufs     [][]llmLen // drawn lengths, parallel to arrivalBufs (LLM models only)
	complBuf    []server.Completion
	complPairs  []complPair
	admitBuf    []admission
	orderBuf    []int
	killedBuf   []*replicaHandle

	// now is the router-phase clock (the current tick's start), the lower
	// bound mailbox sends clamp their delivery timestamps to.
	now      sim.Time
	mergeIdx []int // k-way arrival-merge cursors, reused across ticks

	// hz is the event-horizon scheduler's wake heap over up nodes. The
	// nodes it pops advance serially on the tick goroutine: a tick
	// advances a handful of nodes for ~10-25 µs each, and on a 2-vCPU
	// host waking worker goroutines for them cost more CPU than running
	// them in place (DESIGN.md §10).
	hz *wakeHeap

	// lockstep swaps the event-horizon scheduler for the reference one:
	// every up node advances to each tick barrier, and sends schedule
	// closures on node engines instead of posting mail. Only this
	// package's tests set it, as the oracle the scheduler matrices compare
	// against.
	lockstep bool
}

// complPair is one pulled completion with its handle, buffered so gateway
// runs can replay completions in virtual-time order (the first copy to
// finish must win the hedge, regardless of handle iteration order).
type complPair struct {
	h *replicaHandle
	c server.Completion
}

// admission is one merged arrival awaiting its gateway verdict.
type admission struct {
	at       sim.Time
	deadline sim.Time
	model    int
	tenant   int // dense gateway tenant index
	class    int
	admitted bool
}

// defaultShape fills the fleet's zero shape and timing fields: 3 nodes of
// 2 GPUs, a 2ms tick, a 25-tick epoch and a 6-epoch run. New and the chaos
// scenarios, which scale their fault times to the run, share it.
func defaultShape(cfg Config) Config {
	if cfg.Nodes < 1 {
		cfg.Nodes = 3
	}
	if cfg.GPUsPerNode < 1 {
		cfg.GPUsPerNode = 2
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 2 * sim.Millisecond
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 25 * cfg.Tick
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 6 * cfg.Epoch
	}
	return cfg
}

// New validates the configuration and builds the fleet: planner, nodes
// (with node-local fault plans lowered from GPUDegrade entries), router,
// and autoscaler. No virtual time passes until Run.
func New(cfg Config) *Fleet {
	if len(cfg.Workloads) == 0 {
		panic("cluster: no workloads")
	}
	cfg = defaultShape(cfg)
	if cfg.Spec.Topo.TotalCUs() == 0 {
		cfg.Spec = gpu.MI50Spec()
	}
	if cfg.HSA.PacketProcessTime == 0 {
		cfg.HSA = hsa.DefaultConfig()
	}
	if cfg.Costs == (reconfig.Costs{}) {
		cfg.Costs = reconfig.DefaultCosts()
	}
	if cfg.Headroom == 0 {
		cfg.Headroom = 1.2
	} else if cfg.Headroom < 1 {
		cfg.Headroom = 1
	}
	for i := range cfg.Workloads {
		if lw := cfg.Workloads[i].LLM; lw != nil {
			if cfg.Gateway != nil {
				panic("cluster: gateway is not supported with LLM workloads yet")
			}
			n := normalizeLLM(*lw)
			cfg.Workloads[i].LLM = &n
			cfg.Workloads[i].Batch = n.MaxSeqs
			if cfg.Workloads[i].Model.Name == "" {
				mp, mo := n.Lengths.MeanTokens()
				cfg.Workloads[i].Model = n.Model.Proxy(int(mp), int(mo))
			}
		}
		if cfg.Workloads[i].Batch < 1 {
			cfg.Workloads[i].Batch = models.CalibrationBatch
		}
		if cfg.Workloads[i].Gen == nil {
			panic(fmt.Sprintf("cluster: workload %s has no rate generator", cfg.Workloads[i].Model.Name))
		}
	}
	// Admission control bounds each replica's routed-but-unfinished
	// requests at 4 batches of the largest workload.
	maxBatch := 0
	for _, w := range cfg.Workloads {
		if w.Batch > maxBatch {
			maxBatch = w.Batch
		}
	}

	planner := sched.NewPlanner(profile.Config{
		Spec: cfg.Spec, Tolerance: 0.05, LaunchOverhead: cfg.HSA.PacketProcessTime,
	})

	names := make([]string, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		names[i] = w.Model.Name
	}
	obs := newFleetObserver(cfg.Obs, cfg.Telemetry, names, len(cfg.Tenants), cfg.Tick)

	f := &Fleet{
		cfg:     cfg,
		planner: planner,
		obs:     obs,
		res:     &Result{Policy: cfg.Policy, Duration: cfg.Duration},
		router:  newRouter(cfg.Policy, cfg.Seed, 4*maxBatch, modelQueueCap, obs, cfg.RecordRouting),
		scaler: &autoscaler{
			placer:   &placer{planner: planner},
			epoch:    cfg.Epoch,
			headroom: cfg.Headroom,
		},
	}

	// Per-model router state, with auto-sized SLOs. LLM workloads carry a
	// per-phase sizing profile and auto-size their SLO from the expected
	// full-sequence latency (one prefill plus mean-output decode steps)
	// instead of one fixed-batch pass.
	for i, w := range cfg.Workloads {
		var lm *llmModelState
		if w.LLM != nil {
			mp, mo := w.LLM.Lengths.MeanTokens()
			lm = &llmModelState{
				spec:       *w.LLM,
				meanPrompt: int(mp), meanOutput: int(mo),
				kvPerToken: w.LLM.Model.KVBytesPerToken(),
			}
			lm.sizing = planner.LLMSizing(w.LLM.Model, lm.meanPrompt, lm.meanOutput, w.LLM.MaxSeqs)
		}
		slo := w.SLOUs
		if slo <= 0 {
			if lm != nil {
				seqUs := lm.sizing.PrefillLatency + sim.Duration(lm.meanOutput)*lm.sizing.DecodeStepLatency
				slo = 2*seqUs + server.PreprocessUs + server.PostprocessUs
			} else {
				slo = 2*planner.SLOLatency(w.Model, w.Batch) + server.PreprocessUs + server.PostprocessUs
			}
		}
		f.router.models = append(f.router.models, &modelState{
			index: i, name: w.Model.Name, batch: w.Batch, sloUs: float64(slo), llm: lm,
		})
		f.arrivalRngs = append(f.arrivalRngs,
			rand.New(rand.NewSource(cfg.Seed+int64(i)*104729+17)))
		f.arrivalBufs = append(f.arrivalBufs, nil)
		f.lenBufs = append(f.lenBufs, nil)
	}

	// Lower node-scoped faults (GPU degrades, gray failures, queue stalls)
	// into node-local plans; keep NodeDown events on the fleet timeline.
	nodePlans := make([]faults.Plan, cfg.Nodes)
	for _, nf := range cfg.NodeFaults {
		if nf.Node < 0 || nf.Node >= cfg.Nodes {
			continue
		}
		if nf.Kind == faults.NodeDown {
			f.downFaults = append(f.downFaults, nf)
			continue
		}
		if nf.Kind == faults.GPUDegrade && (nf.GPU < 0 || nf.GPU >= cfg.GPUsPerNode) {
			continue
		}
		nf.Lower(cfg.Spec.Topo, cfg.GPUsPerNode, &nodePlans[nf.Node])
	}
	sort.SliceStable(f.downFaults, func(i, j int) bool {
		return f.downFaults[i].At < f.downFaults[j].At
	})

	for i := 0; i < cfg.Nodes; i++ {
		var plan *faults.Plan
		if !nodePlans[i].Empty() {
			p := nodePlans[i]
			p.Seed = cfg.Seed + int64(i)
			plan = &p
		}
		f.nodes = append(f.nodes, &fleetNode{
			id: i,
			up: true,
			node: server.NewNode(server.NodeConfig{
				Spec:      cfg.Spec,
				HSA:       cfg.HSA,
				GPUs:      cfg.GPUsPerNode,
				Index:     i,
				Seed:      cfg.Seed + int64(i)*31337 + 7,
				Telemetry: cfg.Telemetry,
				Faults:    plan,
			}),
		})
	}
	if cfg.Gateway != nil {
		gcfg := *cfg.Gateway
		if len(gcfg.Tenants) == 0 {
			// Default entitlement mirrors the traffic mix: equal classes,
			// weights from the shares.
			for _, s := range cfg.Tenants {
				gcfg.Tenants = append(gcfg.Tenants, gateway.Tenant{ID: s.ID, Weight: s.Weight})
			}
		}
		slos := make([]gateway.ModelSLO, len(f.router.models))
		for i, m := range f.router.models {
			slos[i] = gateway.ModelSLO{Name: m.name, SLOUs: m.sloUs}
		}
		var reg *telemetry.Registry
		if cfg.Telemetry != nil {
			reg = cfg.Telemetry.Registry()
		}
		f.gw = gateway.New(gcfg, slos, &fleetFabric{f: f}, reg)
		if tr := cfg.Telemetry.Trace(); tr != nil {
			f.gw.SetTrace(tr, fleetPid, fleetTidGateway)
		}
		f.router.gw = f.gw
		f.handleByID = make(map[int]*replicaHandle)
	}
	return f
}

// Run executes the fleet experiment and returns its result.
func (f *Fleet) Run() *Result {
	if !f.lockstep {
		f.router.mailbox = true
		f.hz = &wakeHeap{}
		for _, n := range f.nodes {
			n.hz = f.hz
			f.hz.push(n, nodeWake(n))
		}
	}
	ticks := int(f.cfg.Duration / f.cfg.Tick)
	for tick := 0; tick < ticks; tick++ {
		now := sim.Time(tick) * f.cfg.Tick
		f.now = now
		f.pullCompletions(now)
		f.applyFaults(now)
		if f.gw != nil {
			f.gw.BeginTick(now)
		}
		f.scaler.maybeReplan(f, now)
		f.reap()
		f.routeTick(now, now+f.cfg.Tick)
		if f.gw != nil {
			// Hedge after routing: this tick's sends are fresh, earlier
			// ones that outlived the P95-derived delay get a second copy.
			f.gw.HedgeScan(now)
		}
		f.obs.onTick(f)
		f.advance(now + f.cfg.Tick)
	}
	f.now = f.cfg.Duration
	f.pullCompletions(f.cfg.Duration)
	// Nodes the event-horizon scheduler left idle may lag by many ticks;
	// their frozen state is already final, but the energy integration
	// reads each node's clock, so fast-forward the stragglers to the end
	// of the run. No events fire — a skipped node proved it had none due,
	// and the lockstep oracle already ran every up node to the last tick
	// barrier.
	for _, n := range f.nodes {
		if n.up {
			n.node.RunUntil(f.cfg.Duration)
		}
	}
	f.finish()
	f.obs.finishRun(f)
	return f.res
}

// FlightRecorder returns the run's anomalous-journey recorder, nil when
// journey sampling is disabled. Valid after Run.
func (f *Fleet) FlightRecorder() *telemetry.FlightRecorder {
	if f.obs == nil {
		return nil
	}
	return f.obs.flight
}

// SLOStatuses snapshots the per-model burn-rate monitors (empty without
// Obs.Monitors). Valid after Run.
func (f *Fleet) SLOStatuses() []telemetry.SLOStatus { return f.obs.statuses() }

// spawnReplica places one gpulet on its node.
func (f *Fleet) spawnReplica(t target, readyAt sim.Time) {
	n := f.nodes[t.node]
	m := f.modelByName(t.model)
	spec := server.ReplicaSpec{
		Model: f.cfg.Workloads[m.index].Model,
		Batch: t.batch,
		GPU:   t.gpu,
		CUs:   t.cus,
	}
	if lm := m.llm; lm != nil {
		ls := &server.LLMSpec{
			Model:    lm.spec.Model,
			MaxSeqs:  lm.spec.MaxSeqs,
			Role:     t.role,
			KVBudget: lm.spec.KVBudget,
		}
		if lm.spec.PerPhase {
			ls.PrefillCUs, ls.DecodeCUs = lm.sizing.PrefillCUs, lm.sizing.DecodeCUs
		}
		spec.LLM = ls
	}
	rep := n.node.AddReplica(spec)
	h := &replicaHandle{
		id:        f.handleSeq,
		gpuletKey: t.gpuletKey,
		nodeRef:   n,
		cus:       t.cus,
		rep:       rep,
		readyAt:   readyAt,
	}
	f.handleSeq++
	f.handles = append(f.handles, h)
	n.handles = append(n.handles, h)
	m.replicas = append(m.replicas, h)
	if f.gw != nil {
		f.handleByID[h.id] = h
		h.breaker = f.gw.AddReplica(h.id)
	}
}

// drainReplica starts a graceful drain: no new routing, queued and
// in-flight work completes, then reap removes the handle.
func (f *Fleet) drainReplica(h *replicaHandle) {
	h.draining = true
	h.rep.Drain()
}

func (f *Fleet) modelByName(name string) *modelState {
	for _, m := range f.router.models {
		if m.name == name {
			return m
		}
	}
	panic("cluster: unknown model " + name)
}

// pullCompletions collects finished requests from every live replica and
// feeds them to the router's accounting. Without a gateway they are
// absorbed in handle order, as before. With one they are replayed in
// virtual-time order instead: the hedge winner is whichever copy finished
// first on the fleet clock, which handle iteration order must not decide.
func (f *Fleet) pullCompletions(now sim.Time) {
	if f.gw == nil {
		for _, h := range f.handles {
			if h.dead {
				continue
			}
			f.complBuf = h.rep.TakeCompletions(f.complBuf[:0])
			m := f.modelByName(h.model)
			for _, c := range f.complBuf {
				f.router.absorb(m, h, c, now)
			}
		}
		return
	}
	f.complPairs = f.complPairs[:0]
	for _, h := range f.handles {
		if h.dead {
			continue
		}
		f.complBuf = h.rep.TakeCompletions(f.complBuf[:0])
		for _, c := range f.complBuf {
			f.complPairs = append(f.complPairs, complPair{h: h, c: c})
		}
	}
	slices.SortStableFunc(f.complPairs, func(a, b complPair) int {
		if c := cmp.Compare(a.c.End, b.c.End); c != 0 {
			return c
		}
		return cmp.Compare(a.h.id, b.h.id)
	})
	for _, p := range f.complPairs {
		f.router.absorb(f.modelByName(p.h.model), p.h, p.c, now)
	}
}

// applyFaults fires due NodeDown events and recovers expired ones.
func (f *Fleet) applyFaults(now sim.Time) {
	for f.faultIdx < len(f.downFaults) && f.downFaults[f.faultIdx].At <= now {
		nf := f.downFaults[f.faultIdx]
		f.faultIdx++
		n := f.nodes[nf.Node]
		if !n.up {
			continue
		}
		n.up = false
		if nf.Duration > 0 {
			n.downUntil = nf.At + nf.Duration
		} else {
			n.downUntil = -1
		}
		if f.hz != nil {
			f.hz.remove(n)
		}
		// Mark every handle dead before running the gateway's loss pass, so
		// retries cannot land on a sibling replica of the same dying node.
		f.killedBuf = f.killedBuf[:0]
		for _, h := range n.handles {
			if h.dead {
				continue
			}
			h.rep.Kill()
			h.dead = true
			h.draining = true
			// Killed replicas are never Released; fold their preemption
			// count now, before reap compacts them away.
			f.res.Preemptions += h.rep.Stats().Preempted
			f.killedBuf = append(f.killedBuf, h)
		}
		for _, h := range f.killedBuf {
			if f.gw != nil {
				// The gateway knows which copies sat on the replica:
				// requests with a surviving hedge continue, the rest retry
				// on live replicas (budget permitting) or fail.
				failed := f.gw.OnReplicaDown(h.id, now)
				h.breaker = nil // parked for reuse by a later AddReplica
				f.res.Failed += failed
				f.obs.onReplicaDown(f.modelByName(h.model), h, now, failed, true)
			} else {
				f.res.Failed += h.outstanding
				f.obs.onReplicaDown(f.modelByName(h.model), h, now, h.outstanding, false)
			}
			h.outstanding = 0
		}
		f.res.NodeFaults++
		f.obs.onNodeFault(now, "node-down", nf.Node)
	}
	for _, n := range f.nodes {
		if !n.up && n.downUntil >= 0 && now >= n.downUntil {
			n.up = true
			n.downUntil = 0
			n.node.RunUntil(now) // fast-forward the frozen clock, empty
			if f.hz != nil {
				f.hz.push(n, nodeWake(n))
			}
			f.obs.onNodeFault(now, "node-up", n.id)
		}
	}
}

// reap removes handles that finished draining (or died) from every index.
func (f *Fleet) reap() {
	compact := func(hs []*replicaHandle) []*replicaHandle {
		out := hs[:0]
		for _, h := range hs {
			if !h.dead {
				out = append(out, h)
			}
		}
		return out
	}
	changed := false
	for _, h := range f.handles {
		if !h.dead && h.draining && h.rep.Drained() {
			h.dead = true
			if f.gw != nil {
				f.gw.RemoveReplica(h.id)
				h.breaker = nil // parked for reuse by a later AddReplica
			}
			// Harvest LLM counters before Release resets the stats.
			f.res.Preemptions += h.rep.Stats().Preempted
			// A gracefully drained replica is quiescent: recycle it (and
			// its HSA queue) through the node's pool so autoscaler churn
			// stops growing per-node state. Release refuses killed
			// replicas itself — their in-flight events still fire.
			h.rep.Release()
		}
		if h.dead {
			changed = true
			if f.gw != nil {
				delete(f.handleByID, h.id)
			}
		}
	}
	if !changed {
		return
	}
	f.handles = compact(f.handles)
	for _, n := range f.nodes {
		n.handles = compact(n.handles)
	}
	for _, m := range f.router.models {
		m.replicas = compact(m.replicas)
	}
}

// routeTick drains admission queues, then generates and routes the tick's
// arrivals. Arrivals across models are merged by (time, model index) so the
// decision order is deterministic; each routed request is scheduled onto
// its node at the exact arrival timestamp. With a rate-limiting gateway,
// admission tokens are contended in priority order — highest class and
// tightest deadline first, so under overload the lowest-priority,
// most-slack work is what the emptying buckets shed — while admitted
// requests still route in arrival-time order.
func (f *Fleet) routeTick(from, to sim.Time) {
	for _, m := range f.router.models {
		f.router.drainQueue(m, from)
	}
	f.releaseHandoffs(from, to)
	f.genArrivals(from, to)
	f.mergeRoute(from)
}

// genArrivals draws every workload's arrivals for one tick window into the
// reusable per-model buffers. The draws must happen exactly once per tick
// window: the generators restart their gap sampling from the window start.
func (f *Fleet) genArrivals(from, to sim.Time) {
	for i, w := range f.cfg.Workloads {
		f.arrivalBufs[i] = workload.TenantArrivals(w.Gen, f.arrivalRngs[i], f.cfg.Tenants, from, to, f.arrivalBufs[i][:0])
		// LLM workloads draw their sequence lengths from the same per-model
		// rng, after the window's arrival draws — one Draw per arrival, so
		// classic models consume exactly the PR9 stream.
		if lm := f.router.models[i].llm; lm != nil {
			f.lenBufs[i] = f.lenBufs[i][:0]
			for range f.arrivalBufs[i] {
				p, o := lm.spec.Lengths.Draw(f.arrivalRngs[i])
				f.lenBufs[i] = append(f.lenBufs[i], llmLen{prompt: p, output: o})
			}
		}
	}
}

// mergeRoute merges the generated arrival buffers by (time, model index)
// and routes them — one router pass per tick, so per-request decision cost
// amortizes over the phase-cached candidate sets.
func (f *Fleet) mergeRoute(from sim.Time) {
	if cap(f.mergeIdx) < len(f.arrivalBufs) {
		f.mergeIdx = make([]int, len(f.arrivalBufs))
	}
	idx := f.mergeIdx[:len(f.arrivalBufs)]
	for i := range idx {
		idx[i] = 0
	}
	if f.gw == nil {
		for {
			best := f.nextArrival(idx)
			if best < 0 {
				return
			}
			m := f.router.models[best]
			prompt, output := 0, 0
			if m.llm != nil {
				l := f.lenBufs[best][idx[best]]
				prompt, output = l.prompt, l.output
			}
			at := f.arrivalBufs[best][idx[best]].At
			idx[best]++
			f.res.Arrivals++
			f.router.route(m, at, from, 0, prompt, output)
		}
	}

	f.admitBuf = f.admitBuf[:0]
	for {
		best := f.nextArrival(idx)
		if best < 0 {
			break
		}
		a := f.arrivalBufs[best][idx[best]]
		idx[best]++
		ten := f.gw.TenantIndex(a.Tenant)
		m := f.router.models[best]
		f.admitBuf = append(f.admitBuf, admission{
			at:       a.At,
			deadline: a.At + sim.Duration(m.sloUs),
			model:    best,
			tenant:   ten,
			class:    f.gw.Class(ten),
		})
	}
	f.res.Arrivals += len(f.admitBuf)

	// Admission order: merge order when nothing is rate-limited (order
	// cannot matter, and the sort would disturb the gateway-off baseline);
	// (class, deadline, merge order) when buckets are finite.
	f.orderBuf = f.orderBuf[:0]
	for i := range f.admitBuf {
		f.orderBuf = append(f.orderBuf, i)
	}
	if f.cfg.Gateway.RateLimited() {
		slices.SortStableFunc(f.orderBuf, func(x, y int) int {
			a, b := &f.admitBuf[x], &f.admitBuf[y]
			if c := cmp.Compare(a.class, b.class); c != 0 {
				return c
			}
			return cmp.Compare(a.deadline, b.deadline)
		})
	}
	for _, i := range f.orderBuf {
		a := &f.admitBuf[i]
		if f.gw.Admit(from, a.at, a.model, a.tenant) == gateway.Admitted {
			a.admitted = true
			continue
		}
		m := f.router.models[a.model]
		m.arrivals++
		m.rejected++
		f.obs.onShed(m, a.tenant, a.at, from)
		if f.router.log != nil {
			f.router.seq++
			fmt.Fprintf(f.router.log, "%d %s->shed\n", f.router.seq, m.name)
		}
	}
	// Route the admitted requests in their original arrival order.
	for i := range f.admitBuf {
		a := &f.admitBuf[i]
		if a.admitted {
			f.router.route(f.router.models[a.model], a.at, from, a.tenant, 0, 0)
		}
	}
}

// nextArrival returns the model whose buffered arrival at its merge cursor
// is earliest, the lower model index on ties, or -1 when every buffer is
// exhausted.
func (f *Fleet) nextArrival(idx []int) int {
	best := -1
	var bestT sim.Time
	for i, buf := range f.arrivalBufs {
		if idx[i] >= len(buf) {
			continue
		}
		if t := buf[idx[i]].At; best < 0 || t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// advance moves the fleet's nodes to the tick barrier t. The event-horizon
// scheduler advances only the nodes whose wake falls inside it; the
// lockstep oracle runs every up node to t. Nodes share nothing — each owns
// its engine, devices, and RNGs — so the order they advance in cannot
// change a result.
func (f *Fleet) advance(t sim.Time) {
	if !f.lockstep {
		f.settleEvent(t)
		return
	}
	for _, n := range f.nodes {
		if n.up {
			n.node.RunUntil(t)
		}
	}
}

// finish folds per-model state into the result.
func (f *Fleet) finish() {
	f.res.Epochs = f.scaler.epochs
	for _, h := range f.handles {
		// Live (and still-draining) handles keep their stats; drained and
		// killed ones were harvested at reap/fault time.
		if !h.dead {
			f.res.Preemptions += h.rep.Stats().Preempted
		}
	}
	total := 0
	for _, m := range f.router.models {
		total += m.latency.Len()
	}
	f.res.Latency.Grow(total)
	for _, m := range f.router.models {
		// Requests still queued at the end never completed; count them
		// rejected so totals balance. Handoffs still in transit were
		// already routed — they end the run in flight, like any other
		// unfinished request.
		m.rejected += len(m.queue)
		m.queue = nil
		if m.llm != nil {
			m.llm.handoffs = nil
			f.res.KVHandoffs += m.llm.handoffCount
			f.res.KVHandoffUs += m.llm.handoffUs
		}
		f.res.Routed += m.routed
		f.res.Rejected += m.rejected
		f.res.Completed += m.completed
		f.res.SLOViolations += m.sloViolations
		f.res.TokensOut += m.tokensOut
		mr := ModelResult{
			Model:         m.name,
			Arrivals:      m.arrivals,
			Routed:        m.routed,
			Rejected:      m.rejected,
			Completed:     m.completed,
			SLOViolations: m.sloViolations,
			TokensOut:     m.tokensOut,
			Latency:       m.latency,
		}
		for _, v := range m.latency.Values() {
			f.res.Latency.Add(v)
		}
		f.res.PerModel = append(f.res.PerModel, mr)
	}
	for _, n := range f.nodes {
		f.res.EnergyJ += n.node.EnergyJ()
	}
	if f.router.log != nil {
		f.res.RoutingLog = f.router.log.String()
	}
	if f.gw != nil {
		f.res.Gateway = f.gw.Snapshot()
	}
}

// Run builds and executes a fleet experiment in one call. Nothing outlives
// the call but the Result, so the nodes are released afterwards for the
// next fleet (or server.Run) to reuse; a Fleet built with New keeps its
// nodes.
func Run(cfg Config) *Result {
	f := New(cfg)
	res := f.Run()
	for _, n := range f.nodes {
		n.node.Release()
	}
	return res
}
