package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"krisp/internal/cluster/gateway"
	"krisp/internal/metrics"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// Policy selects the front-end routing strategy.
type Policy int

const (
	// RoundRobin cycles through a model's ready replicas.
	RoundRobin Policy = iota
	// LeastOutstanding routes to the replica with the fewest
	// router-accounted outstanding requests.
	LeastOutstanding
	// PowerOfTwo samples two ready replicas and takes the one with fewer
	// outstanding requests — the classic load-balancing compromise between
	// RoundRobin's bluntness and LeastOutstanding's herd behaviour.
	PowerOfTwo
	// SLOAware predicts each replica's completion latency from its recent
	// observed P95 and outstanding backlog and routes to the minimum — the
	// policy that notices a degraded GPU and steers around it.
	SLOAware
)

// Policies lists every routing policy.
func Policies() []Policy {
	return []Policy{RoundRobin, LeastOutstanding, PowerOfTwo, SLOAware}
}

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastOutstanding:
		return "least-outstanding"
	case PowerOfTwo:
		return "p2c"
	case SLOAware:
		return "slo-aware"
	default:
		return "unknown"
	}
}

// PolicyByName parses a policy name as printed by String.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown routing policy %q", name)
}

// latWindow keeps the most recent completed-request latencies of one
// replica and serves their P95 with a lazily-sorted scratch copy.
type latWindow struct {
	buf     [64]float64
	n, next int
	dirty   bool
	p95v    float64
}

func (w *latWindow) add(v float64) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.dirty = true
}

// p95 returns the window's 95th percentile, 0 when empty. The percentile
// index for n <= 64 samples is always within the top 4, so a single pass
// keeping the k largest replaces the sorted-scratch approach — same value
// (the k-th largest equals sorted[idx] even with duplicates), no copy, no
// sort. The router recomputes this after every completion, which made it
// one of the fleet's hottest non-simulation paths.
func (w *latWindow) p95() float64 {
	if w.n == 0 {
		return 0
	}
	if w.dirty {
		idx := (w.n*95 + 99) / 100
		if idx > 0 {
			idx--
		}
		k := w.n - idx // p95 is the k-th largest sample; k in [1,4]
		var top [4]float64
		m := 0
		for _, v := range w.buf[:w.n] {
			if m < k {
				i := m
				for i > 0 && top[i-1] > v {
					top[i] = top[i-1]
					i--
				}
				top[i] = v
				m++
				continue
			}
			if v <= top[0] {
				continue
			}
			i := 0
			for i+1 < k && top[i+1] < v {
				top[i] = top[i+1]
				i++
			}
			top[i] = v
		}
		w.p95v = top[0]
		w.dirty = false
	}
	return w.p95v
}

// replicaHandle is the router's view of one placed gpulet. The outstanding
// count is router-side accounting (incremented on route, decremented when
// the completion is pulled) — the router never peeks into a node
// mid-advancement, which is what keeps concurrent node simulation
// deterministic.
type replicaHandle struct {
	id        int // stable fleet-wide creation order
	node, gpu int
	nodeRef   *fleetNode
	model     string
	cus       int
	rep       *server.Replica
	readyAt   sim.Time
	draining  bool
	dead      bool

	// role is the replica's LLM serving role; LLMRoleMixed (zero) for
	// classic models and non-disaggregated LLM fleets.
	role server.LLMRole

	// breaker is the replica's circuit breaker when a gateway fronts the
	// fleet; nil otherwise (and nil always allows).
	breaker *gateway.Breaker

	outstanding int
	routed      int
	lat         latWindow
}

func (h *replicaHandle) routable(now sim.Time) bool {
	return !h.dead && !h.draining && h.readyAt <= now && h.breaker.Allow(now)
}

// accepts reports whether fresh arrivals may route here: decode-role
// replicas only serve sequences handed off after prefill, never prompts.
func (h *replicaHandle) accepts() bool { return h.role != server.LLMRoleDecode }

// queuedReq is one admission-queued request.
type queuedReq struct {
	arrival sim.Time
	tenant  int // dense gateway tenant index; 0 without a gateway

	// prompt/output are the drawn sequence lengths for LLM workloads;
	// zero for classic models.
	prompt, output int
}

// modelState is the router's per-model bookkeeping: the live replica set,
// the admission queue, and the SLO target.
type modelState struct {
	index    int
	name     string
	batch    int
	sloUs    float64
	rrNext   int
	replicas []*replicaHandle
	queue    []queuedReq

	// llm is non-nil when this model is an autoregressive workload; it
	// carries the length distribution, per-phase sizing, and the
	// disaggregated handoff queue.
	llm *llmModelState

	arrivals      int
	routed        int
	rejected      int
	completed     int
	sloViolations int
	tokensOut     int
	latency       metrics.Sample

	// readyBuf caches the routable replica set for one routing phase, keyed
	// by (cacheAt, cacheEpoch): within a tick the router clock is frozen and
	// the replica set only changes at control-plane points that bump the
	// router epoch, so every pick of the phase reuses one filtered scan
	// instead of re-testing routability per candidate (the cost that made
	// p2c rebuild — and allocate — its candidate slice on every decision).
	// Only maintained without a gateway: circuit breakers make routability
	// stateful (a half-open breaker admits exactly one probe), so gateway
	// picks keep the exact per-decision scan.
	readyBuf   []*replicaHandle
	cacheAt    sim.Time
	cacheEpoch uint64
	cacheBuilt bool
}

// router is the SLO-aware front end: per-model queues, pluggable replica
// choice, and admission control. It is strictly single-goroutine; nodes
// only communicate with it through pulled completions.
type router struct {
	policy         Policy
	rng            *rand.Rand // power-of-two sampling only
	outstandingCap int        // per replica, in requests
	queueCap       int        // per model
	models         []*modelState
	tel            *fleetTelemetry

	// obs, when non-nil, is the request-journey observer. Sends then carry
	// request identities even without a gateway so completions can be
	// matched back to their sampled journey records.
	obs *fleetObserver

	// gw, when non-nil, is the resilience gateway fronting this router:
	// sends carry request identities, queue sheds report back, and the
	// deadline oracle tightens queue admission.
	gw     *gateway.Gateway
	reqSeq uint64 // request identity allocator (gateway mode; ids start at 1)

	// mailbox switches sends from scheduling closures on node engines (the
	// lockstep oracle's transport) to posting timestamped mail (the
	// event-horizon scheduler's). The delivery timestamp is clamped to the
	// router clock — the same clamp Schedule applies against the node
	// clock under lockstep, where the two clocks are equal at every router
	// phase.
	mailbox bool

	// epoch versions the replica sets: every control-plane mutation that can
	// change a handle's routability (spawn, drain, kill, reap) bumps it,
	// invalidating each model's cached ready set. Completions don't — they
	// touch latency windows and outstanding counts, which the pick paths
	// read fresh, never routability.
	epoch uint64

	// log records every routing decision when non-nil (determinism tests,
	// debugging). One line per request: "<seq> <model>-><replica id>" or
	// "<seq> <model>->reject".
	log *strings.Builder
	seq int
}

func newRouter(policy Policy, seed int64, outstandingCap, queueCap int, tel *fleetTelemetry, record bool) *router {
	r := &router{
		policy:         policy,
		rng:            rand.New(rand.NewSource(seed ^ 0x726f757465)), // "route"
		outstandingCap: outstandingCap,
		queueCap:       queueCap,
		tel:            tel,
	}
	if record {
		r.log = &strings.Builder{}
	}
	return r
}

// predictUs is the SLO-aware completion-latency estimate for one candidate
// replica: its recently observed request P95 (which already folds in its
// service speed and typical queueing) scaled by how many batches the
// backlog represents. A replica with no history gets a prior of half the
// SLO (the expected healthy latency) that escalates with its backlog: a
// dead-silent replica — routed to, never completing — must not keep
// winning on a flat neutral prior while its queue grows without bound.
func predictUs(m *modelState, h *replicaHandle) float64 {
	p95 := h.lat.p95()
	if h.lat.n == 0 {
		p95 = m.sloUs / 2 * (1 + float64(h.outstanding))
	}
	return p95 * (1 + float64(h.outstanding)/float64(m.batch))
}

// feasibleUs is the absolute completion-latency estimate used for deadline
// admission. Unlike predictUs — a relative score where over-penalising
// backlog is harmless because every candidate is scored the same way — this
// must not double-count: the observed P95 already folds in the queueing a
// replica sees at its steady-state depth, so only backlog beyond one
// in-flight batch (true excess queue) escalates the estimate.
func feasibleUs(m *modelState, h *replicaHandle) float64 {
	p95 := h.lat.p95()
	if h.lat.n == 0 {
		p95 = m.sloUs / 2 * (1 + float64(h.outstanding))
	}
	excess := float64(h.outstanding - m.batch)
	if excess < 0 {
		excess = 0
	}
	return p95 * (1 + excess/float64(m.batch))
}

// bestPredictUs is the deadline-admission oracle: the predicted latency of
// the model's best routable replica right now (+Inf when none is
// routable). Replicas at their outstanding cap still count — the queue
// drains into them — so one gray replica's tail cannot force fleet-wide
// deadline sheds while healthy capacity remains.
func (r *router) bestPredictUs(m *modelState, now sim.Time) float64 {
	best := math.Inf(1)
	for _, h := range m.replicas {
		if !h.accepts() || !h.routable(now) {
			continue
		}
		if s := feasibleUs(m, h); s < best {
			best = s
		}
	}
	return best
}

// invalidate marks every cached ready set stale; callers invoke it on any
// control-plane change to a handle's routability flags.
func (r *router) invalidate() { r.epoch++ }

// readySet returns the model's routable replicas in replica order,
// rebuilding the cached set only when the phase clock or replica epoch
// moved. Candidates at their outstanding cap are included — each policy
// applies its own headroom test — so the set stays valid across the sends
// of one phase (sends raise outstanding, never routability).
func (r *router) readySet(m *modelState, now sim.Time) []*replicaHandle {
	if m.cacheBuilt && m.cacheAt == now && m.cacheEpoch == r.epoch {
		return m.readyBuf
	}
	m.readyBuf = m.readyBuf[:0]
	for _, h := range m.replicas {
		if h.accepts() && h.routable(now) {
			m.readyBuf = append(m.readyBuf, h)
		}
	}
	m.cacheAt, m.cacheEpoch, m.cacheBuilt = now, r.epoch, true
	return m.readyBuf
}

// pick selects a routable replica with admission headroom, or nil when
// every candidate is at its outstanding cap (the request then queues).
// exclude skips one replica id (hedge copies must land elsewhere); -1
// excludes nothing. Without a gateway the candidate scan runs over the
// phase-cached ready set; gateway picks (stateful breakers, hedge
// exclusions) re-test routability per decision, exactly as before.
func (r *router) pick(m *modelState, now sim.Time, exclude int) *replicaHandle {
	cached := r.gw == nil && exclude < 0
	switch r.policy {
	case RoundRobin:
		n := len(m.replicas)
		for i := 0; i < n; i++ {
			h := m.replicas[(m.rrNext+i)%n]
			if h.id != exclude && h.accepts() && h.routable(now) && h.outstanding < r.outstandingCap {
				m.rrNext = (m.rrNext + i + 1) % n
				return h
			}
		}
		return nil

	case LeastOutstanding:
		var best *replicaHandle
		if cached {
			for _, h := range r.readySet(m, now) {
				if h.outstanding >= r.outstandingCap {
					continue
				}
				if best == nil || h.outstanding < best.outstanding {
					best = h
				}
			}
			return best
		}
		for _, h := range m.replicas {
			if h.id == exclude || !h.accepts() || !h.routable(now) || h.outstanding >= r.outstandingCap {
				continue
			}
			if best == nil || h.outstanding < best.outstanding {
				best = h
			}
		}
		return best

	case PowerOfTwo:
		var ready []*replicaHandle
		if cached {
			ready = r.readySet(m, now)
		} else {
			ready = m.readyBuf[:0]
			for _, h := range m.replicas {
				if h.id != exclude && h.accepts() && h.routable(now) {
					ready = append(ready, h)
				}
			}
			m.readyBuf, m.cacheBuilt = ready, false
		}
		if len(ready) == 0 {
			return nil
		}
		a := ready[r.rng.Intn(len(ready))]
		b := ready[r.rng.Intn(len(ready))]
		if b.outstanding < a.outstanding {
			a, b = b, a
		}
		if a.outstanding < r.outstandingCap {
			return a
		}
		if b.outstanding < r.outstandingCap {
			return b
		}
		return nil

	case SLOAware:
		var best *replicaHandle
		bestScore := 0.0
		if cached {
			for _, h := range r.readySet(m, now) {
				if h.outstanding >= r.outstandingCap {
					continue
				}
				score := predictUs(m, h)
				if best == nil || score < bestScore || (score == bestScore && h.id < best.id) {
					best, bestScore = h, score
				}
			}
			return best
		}
		for _, h := range m.replicas {
			if h.id == exclude || !h.accepts() || !h.routable(now) || h.outstanding >= r.outstandingCap {
				continue
			}
			score := predictUs(m, h)
			if best == nil || score < bestScore || (score == bestScore && h.id < best.id) {
				best, bestScore = h, score
			}
		}
		return best

	default:
		panic("cluster: unknown policy")
	}
}

// route admits one request that arrived at the given time: hand it to a
// replica, queue it, or reject it. Routed requests are scheduled onto the
// chosen replica's node at their arrival timestamp. tenant is the dense
// gateway tenant index (0 without a gateway); prompt/output are the drawn
// sequence lengths for LLM workloads (0 for classic models).
func (r *router) route(m *modelState, arrival sim.Time, now sim.Time, tenant, prompt, output int) {
	r.seq++
	m.arrivals++
	if h := r.pick(m, now, -1); h != nil {
		r.send(m, h, arrival, now, tenant, prompt, output)
		return
	}
	if len(m.queue) < r.queueCap {
		m.queue = append(m.queue, queuedReq{arrival: arrival, tenant: tenant, prompt: prompt, output: output})
		return
	}
	m.rejected++
	r.tel.cRejected().Inc()
	r.obs.onShed(m, tenant, arrival, now)
	if r.log != nil {
		fmt.Fprintf(r.log, "%d %s->reject\n", r.seq, m.name)
	}
}

// send commits one request to a replica. In gateway mode the request gets
// a fresh identity so its copies can be hedged, cancelled, and matched.
// LLM requests (prompt > 0) enter the replica's continuous batch as fresh
// sequences via SubmitSeq.
func (r *router) send(m *modelState, h *replicaHandle, arrival, now sim.Time, tenant, prompt, output int) {
	h.outstanding++
	h.routed++
	m.routed++
	r.tel.cRouted().Inc()
	if r.log != nil {
		fmt.Fprintf(r.log, "%d %s->%d\n", r.seq, m.name, h.id)
	}
	rep := h.rep
	at := arrival
	var id uint64
	if r.gw != nil || r.obs.journeysOn() {
		r.reqSeq++
		id = r.reqSeq
	}
	if r.gw != nil {
		r.gw.OnPrimarySend(id, m.index, tenant, h.id, arrival, now)
	}
	r.obs.onSend(id, m, h, tenant, arrival, now)
	r.tel.traceRoute(now, h.id)
	if r.mailbox {
		deliver := at
		if deliver < now {
			deliver = now // queued re-sends deliver now, like Schedule's clamp
		}
		if prompt > 0 {
			h.nodeRef.node.PostSubmitSeq(deliver, at, rep, id, prompt, output, false)
		} else {
			h.nodeRef.node.PostSubmit(deliver, at, rep, id)
		}
		h.nodeRef.noteMail(deliver)
		return
	}
	if prompt > 0 {
		p, o := prompt, output
		h.nodeRef.node.Schedule(at, func() { rep.SubmitSeq(at, id, p, o, false) })
		return
	}
	if id != 0 {
		h.nodeRef.node.Schedule(at, func() { rep.SubmitID(at, id) })
		return
	}
	h.nodeRef.node.Schedule(at, func() { rep.Submit(at) })
}

// drainQueue re-attempts queued requests (oldest first) and sheds the ones
// whose wait already exceeds the model's SLO — they cannot complete in
// time, so admission control fails them fast instead of letting them rot.
// A gateway tightens the test: a request is also shed once the best
// routable replica's predicted latency no longer fits its remaining
// deadline budget.
func (r *router) drainQueue(m *modelState, now sim.Time) {
	keep := m.queue[:0]
	for i := range m.queue {
		q := m.queue[i]
		wait := float64(now - q.arrival)
		infeasible := wait > m.sloUs
		if !infeasible && r.gw != nil && r.gw.DeadlineEnabled() {
			infeasible = r.bestPredictUs(m, now) > m.sloUs-wait
		}
		if infeasible {
			m.rejected++
			r.tel.cRejected().Inc()
			r.obs.onShed(m, q.tenant, q.arrival, now)
			if r.gw != nil {
				r.gw.OnQueueShed(m.index, q.tenant)
			}
			continue
		}
		if h := r.pick(m, now, -1); h != nil {
			r.seq++
			r.send(m, h, q.arrival, now, q.tenant, q.prompt, q.output)
			continue
		}
		keep = append(keep, q)
	}
	m.queue = keep
}

// absorb processes one pulled completion. Cancelled copies only release
// their occupancy; in gateway mode a completion counts as a served request
// only when the gateway rules it the winning copy.
func (r *router) absorb(m *modelState, h *replicaHandle, c server.Completion, now sim.Time) {
	if h.outstanding > 0 {
		h.outstanding--
	}
	if c.Cancelled {
		return
	}
	lat := float64(c.End - c.Arrival)
	h.lat.add(lat)
	if h.role == server.LLMRolePrefill && m.llm != nil {
		// A finished prefill is not a served request yet: bill the KV
		// transfer and queue the sequence for a decode replica. The journey
		// and the latency sample retire on the decode-side completion.
		m.llm.queueHandoff(c, 0)
		return
	}
	if r.gw != nil && !r.gw.OnCompletion(c.ID, h.id, c.End, now) {
		// The losing copy of a hedge (or a stale copy of a retried
		// request): evidence for the replica's latency window above, but
		// not a served request.
		return
	}
	m.completed++
	m.tokensOut += c.Tokens
	m.latency.Add(lat)
	r.tel.cCompleted().Inc()
	sloViolated := lat > m.sloUs
	if sloViolated {
		m.sloViolations++
		r.tel.cSLO().Inc()
	}
	r.obs.onWinner(m, h, c, sloViolated)
}
