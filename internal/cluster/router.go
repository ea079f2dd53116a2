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

// replicaHandle is the router's view of one placed gpulet. The outstanding
// count is router-side accounting (incremented on route, decremented when
// the completion is pulled) — the router never peeks into a node
// mid-advancement, so how far each node's clock has run cannot change a
// decision.
type replicaHandle struct {
	id int // stable fleet-wide creation order
	gpuletKey
	nodeRef  *fleetNode
	cus      int
	rep      *server.Replica
	readyAt  sim.Time
	draining bool
	dead     bool

	// breaker is the replica's circuit breaker when a gateway fronts the
	// fleet; nil otherwise, and nil once the gateway has dropped the
	// replica and parked the breaker for reuse (nil always allows).
	breaker *gateway.Breaker

	outstanding int
	routed      int
	lat         metrics.LatWindow
}

func (h *replicaHandle) routable(now sim.Time) bool {
	return !h.dead && !h.draining && h.readyAt <= now && h.breaker.Allow(now)
}

// eligible reports whether a fresh arrival may route here at now: not the
// excluded replica (a hedge copy must land elsewhere; -1 excludes nothing),
// not decode-role (those only serve sequences handed off after prefill),
// and routable. routable goes last because a breaker's Allow is stateful —
// it moves an expired open breaker to half-open — so it must run only on
// replicas that pass every other test.
func (h *replicaHandle) eligible(now sim.Time, exclude int) bool {
	return h.id != exclude && h.role != server.LLMRoleDecode && h.routable(now)
}

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

	// readyBuf is power-of-two's scratch candidate slice, reused across
	// decisions so sampling allocates nothing.
	readyBuf []*replicaHandle
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

	// obs is the fleet observer (nil when nothing observes). With journeys
	// on, sends carry request identities even without a gateway so
	// completions can be matched back to their sampled journey records.
	obs *fleetObserver

	// gw, when non-nil, is the resilience gateway fronting this router:
	// sends carry request identities, queue sheds report back, and the
	// deadline oracle tightens queue admission.
	gw     *gateway.Gateway
	reqSeq uint64 // request identity allocator (gateway mode; ids start at 1)

	// mailbox selects deliver's transport: timestamped mail (the
	// event-horizon scheduler) rather than one closure per copy on the node
	// engine (the lockstep oracle).
	mailbox bool

	// log records every routing decision when non-nil (determinism tests,
	// debugging). One line per request: "<seq> <model>-><replica id>" or
	// "<seq> <model>->reject".
	log *strings.Builder
	seq int
}

// modelQueueCap bounds each model's router-side admission queue in a
// fleet; router tests build shallower queues through newRouter.
const modelQueueCap = 64

func newRouter(policy Policy, seed int64, outstandingCap, queueCap int, obs *fleetObserver, record bool) *router {
	r := &router{
		policy:         policy,
		rng:            rand.New(rand.NewSource(seed ^ 0x726f757465)), // "route"
		outstandingCap: outstandingCap,
		queueCap:       queueCap,
		obs:            obs,
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
	p95 := h.lat.P95()
	if h.lat.Len() == 0 {
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
	p95 := h.lat.P95()
	if h.lat.Len() == 0 {
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
		if !h.eligible(now, -1) {
			continue
		}
		if s := feasibleUs(m, h); s < best {
			best = s
		}
	}
	return best
}

// pick selects an eligible replica with admission headroom, or nil when
// every candidate is at its outstanding cap (the request then queues).
// exclude skips one replica id (hedge copies must land elsewhere); -1
// excludes nothing. Every policy is one scan of m.replicas with the
// eligibility test inline: round-robin from its cursor up to the first
// hit, the others in full.
func (r *router) pick(m *modelState, now sim.Time, exclude int) *replicaHandle {
	switch r.policy {
	case RoundRobin:
		n := len(m.replicas)
		for i := 0; i < n; i++ {
			h := m.replicas[(m.rrNext+i)%n]
			if h.eligible(now, exclude) && h.outstanding < r.outstandingCap {
				m.rrNext = (m.rrNext + i + 1) % n
				return h
			}
		}
		return nil

	case LeastOutstanding:
		var best *replicaHandle
		for _, h := range m.replicas {
			if !h.eligible(now, exclude) || h.outstanding >= r.outstandingCap {
				continue
			}
			if best == nil || h.outstanding < best.outstanding {
				best = h
			}
		}
		return best

	case PowerOfTwo:
		ready := m.readyBuf[:0]
		for _, h := range m.replicas {
			if h.eligible(now, exclude) {
				ready = append(ready, h)
			}
		}
		m.readyBuf = ready
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
		for _, h := range m.replicas {
			if !h.eligible(now, exclude) || h.outstanding >= r.outstandingCap {
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
	if r.log != nil {
		fmt.Fprintf(r.log, "%d %s->%d\n", r.seq, m.name, h.id)
	}
	var id uint64
	if r.gw != nil || r.obs.journeysOn() {
		r.reqSeq++
		id = r.reqSeq
	}
	if r.gw != nil {
		r.gw.OnPrimarySend(id, m.index, tenant, h.id, arrival, now)
	}
	r.obs.onSend(id, m, h, tenant, arrival, now)
	r.deliver(h, arrival, now, arrival, id, prompt, output, false)
}

// deliver hands one request copy to replica h at virtual time due, clamped
// to the router clock now: a queued re-send, or a handoff whose transfer
// landed earlier in the tick, delivers now. arrival stays the copy's true
// arrival, so its latency still counts from there. The copy enters through
// Replica.SubmitSeq, which a classic replica takes as SubmitID; prefilled
// marks a disaggregated KV handoff joining decode directly. The
// event-horizon scheduler posts the copy as timestamped mail and lowers the
// node's wake; the lockstep oracle schedules it as one closure on the node
// engine, whose clock equals the router's at every router phase.
func (r *router) deliver(h *replicaHandle, due, now, arrival sim.Time, id uint64, prompt, output int, prefilled bool) {
	if due < now {
		due = now
	}
	if r.mailbox {
		h.nodeRef.node.Post(due, arrival, h.rep, id, prompt, output, prefilled)
		h.nodeRef.noteMail(due)
		return
	}
	rep := h.rep
	h.nodeRef.node.Schedule(due, func() { rep.SubmitSeq(arrival, id, prompt, output, prefilled) })
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
	h.lat.Add(lat)
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
	sloViolated := lat > m.sloUs
	if sloViolated {
		m.sloViolations++
	}
	r.obs.onWinner(m, h, c, sloViolated)
}
