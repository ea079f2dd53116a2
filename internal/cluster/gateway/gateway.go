// Package gateway is the resilience layer between clients and the fleet
// router: per-tenant token-bucket rate limiting with weighted fairness and
// priority classes, per-replica circuit breakers, request hedging with
// cancellation under a global retry/hedge budget, and deadline-aware
// admission. KRISP right-sizes kernels and the cluster routes replicas;
// the gateway is what keeps one hot tenant or one gray-failing GPU from
// dragging the whole fleet's tail down — the regime large-scale spatial
// sharing (ParvaGPU) and co-location (ECLIP) serving actually lives in,
// where partial gray degradation is the common case and clean crashes are
// the exception.
//
// Everything here is deterministic and single-goroutine: decisions depend
// only on virtual time and the caller's event order, never on wall time,
// goroutine interleaving, or map iteration. The per-request admission path
// performs zero heap allocations (asserted by benchmark), so the gateway
// can front a saturating open-loop workload without becoming the
// bottleneck it exists to remove.
package gateway

import (
	"fmt"

	"krisp/internal/metrics"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// Verdict classifies one admission decision.
type Verdict uint8

const (
	// Admitted passes the request to the router.
	Admitted Verdict = iota
	// ShedDeadline rejects a request that cannot meet its SLO even if
	// served immediately — shedding it at admission costs nothing; serving
	// it would waste CUs on a guaranteed violation.
	ShedDeadline
	// ShedTenantRate rejects a request whose tenant exhausted its own
	// token bucket (weighted-fair isolation: a hot tenant sheds first).
	ShedTenantRate
	// ShedOverload rejects a request the global admission bucket cannot
	// cover at its priority class's reserve level.
	ShedOverload
)

func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case ShedDeadline:
		return "deadline"
	case ShedTenantRate:
		return "tenant-rate"
	case ShedOverload:
		return "overload"
	default:
		return "unknown"
	}
}

// CopyKind labels the copies of one logical request.
type CopyKind uint8

const (
	// CopyPrimary is the first send of a request.
	CopyPrimary CopyKind = iota
	// CopyHedge is a duplicate sent after the hedge delay; first copy to
	// complete wins, the loser is cancelled.
	CopyHedge
	// CopyRetry replaces a copy lost to a dead replica.
	CopyRetry
)

func (k CopyKind) String() string {
	switch k {
	case CopyPrimary:
		return "primary"
	case CopyHedge:
		return "hedge"
	case CopyRetry:
		return "retry"
	default:
		return "unknown"
	}
}

// Fabric is what the gateway needs from the routing layer beneath it. The
// cluster fleet implements it over its router and replica handles; tests
// implement it with fakes.
type Fabric interface {
	// PickReplica chooses a routable replica for the model, excluding the
	// given replica id (-1 excludes nothing). Returns -1 when no candidate
	// has admission headroom.
	PickReplica(model, exclude int, now sim.Time) int
	// SendCopy commits one copy of request id to a replica at its original
	// arrival timestamp.
	SendCopy(model, replica int, id uint64, arrival sim.Time, kind CopyKind)
	// CancelCopy revokes the losing copy of a hedged request: dequeued if
	// still waiting, suppressed at the batch boundary if in flight.
	CancelCopy(replica int, id uint64)
	// BestLatencyUs estimates the latency the model's best routable
	// replica would deliver right now — the deadline-admission oracle.
	BestLatencyUs(model int, now sim.Time) float64
}

// Tenant describes one traffic source's contract with the gateway.
type Tenant struct {
	// ID is the tenant's stable identity (arbitrary, need not be dense).
	ID int
	// Weight is the tenant's share of the global admission rate; its token
	// bucket refills at twice GlobalRatePerSec * Weight/sumWeights and
	// holds 100ms of that rate (minimum 8). Zero means 1.
	Weight float64
	// Class is the tenant's priority class, 0 = highest. Under overload,
	// lower classes (higher numbers) are shed first.
	Class int
}

// ModelSLO names one served model and its per-request latency SLO.
type ModelSLO struct {
	Name  string
	SLOUs float64
}

// Config tunes the gateway. The zero value disables rate limiting (no
// buckets), keeps hedging, retries, breakers, and deadline admission on
// with defaults, and assumes a single tenant 0.
type Config struct {
	// Tenants lists the admitted traffic sources. Empty means one tenant
	// (ID 0, weight 1, class 0). Requests from unknown tenants are mapped
	// onto the first tenant.
	Tenants []Tenant
	// GlobalRatePerSec caps aggregate admission (requests per virtual
	// second). Zero disables the global bucket.
	GlobalRatePerSec float64
	// GlobalBurst is the global bucket depth; zero means 100ms of the
	// global rate (minimum 16).
	GlobalBurst float64

	// HedgeMinDelay floors the hedge delay (a cold P95 window must not
	// cause hedges on every request). Zero means 500us.
	HedgeMinDelay sim.Duration
	// Budget is the retry+hedge budget as a ratio of primary sends, banked
	// up to 16. Zero means 0.1; negative disables all secondary traffic.
	Budget float64

	// DisableHedging, DisableRetry, DisableDeadline, and DisableBreakers
	// switch off the corresponding mechanism (for ablations and the
	// transparency tests).
	DisableHedging  bool
	DisableRetry    bool
	DisableDeadline bool
	DisableBreakers bool
}

// RateLimited reports whether the configuration can ever shed on rate
// (the buckets are finite). When false, admission order cannot matter and
// the fleet skips the priority sort entirely.
func (c *Config) RateLimited() bool { return c.GlobalRatePerSec > 0 }

const (
	// overSubscription scales each tenant's weight-derived bucket rate
	// above its exact fair share, so spare capacity is usable while hard
	// isolation still kicks in at twice the fair share.
	overSubscription = 2
	// budgetBurst is the retry/hedge budget bank's depth.
	budgetBurst = 16
)

// TenantStats is one tenant's admission outcome.
type TenantStats struct {
	ID             int
	Admitted, Shed uint64
}

// Stats is the gateway's cumulative decision record. Counters mirror the
// krisp_gateway_* telemetry series.
type Stats struct {
	Admitted     uint64
	ShedDeadline uint64
	ShedTenant   uint64
	ShedOverload uint64
	// ShedQueue counts admitted requests later shed from the router queue
	// because their remaining deadline budget could no longer cover the
	// estimated service time.
	ShedQueue uint64

	Primaries    uint64
	Hedges       uint64
	HedgeWins    uint64
	Retries      uint64
	BudgetDenied uint64
	Cancelled    uint64

	BreakerOpens     uint64
	BreakerHalfOpens uint64
	BreakerCloses    uint64

	// BudgetRatio and BudgetBurst are the budget's resolved parameters,
	// recorded so invariant checks need no access to the config defaults.
	BudgetRatio float64
	BudgetBurst float64

	// ShedByClass indexes shed counts by priority class.
	ShedByClass []uint64
	// Tenants holds per-tenant admission outcomes, in config order.
	Tenants []TenantStats
}

// CheckBudget verifies the retry/hedge budget invariant — secondary sends
// never exceed the configured ratio of primary traffic plus the bank's
// burst. The chaos tests call it on every scenario.
func (s *Stats) CheckBudget() error {
	limit := s.BudgetRatio*float64(s.Primaries) + s.BudgetBurst
	if got := float64(s.Secondaries()); got > limit {
		return fmt.Errorf("gateway: budget exceeded: %d hedges + %d retries = %.0f > %.1f (%.2f x %d primaries + %.0f burst)",
			s.Hedges, s.Retries, got, limit, s.BudgetRatio, s.Primaries, s.BudgetBurst)
	}
	return nil
}

// Shed sums every shed reason (including post-admission queue sheds).
func (s *Stats) Shed() uint64 {
	return s.ShedDeadline + s.ShedTenant + s.ShedOverload + s.ShedQueue
}

// Secondaries sums hedge and retry sends — the traffic the budget caps.
func (s *Stats) Secondaries() uint64 { return s.Hedges + s.Retries }

type tenantState struct {
	idx    int
	cfg    Tenant
	bucket TokenBucket
	stats  TenantStats
}

type modelState struct {
	name  string
	sloUs float64
	lat   metrics.LatWindow // winning end-to-end latencies; drives the hedge delay
}

// track is the gateway's view of one in-flight logical request.
type track struct {
	id          uint64
	model       int32
	tenant      int32
	arrival     sim.Time
	deadline    sim.Time
	sentAt      sim.Time // primary (or retry) send time
	hedgeSentAt sim.Time
	primary     int // replica id, -1 after its replica died
	hedge       int // -1 while unhedged
	resolved    bool
}

// Gateway is the resilience front end. Strictly single-goroutine, like the
// router it feeds.
type Gateway struct {
	cfg    Config
	fabric Fabric

	models   []modelState
	tenants  []tenantState
	byTenant map[int]int // tenant ID -> index
	global   TokenBucket
	classes  int
	budget   Budget

	breakers    map[int]*Breaker // replica id -> breaker
	breakerFree []*Breaker       // removed replicas' breakers, reused by AddReplica

	inflight []*track
	byID     map[uint64]*track
	resolved int
	free     []*track // resolved tracks compact dropped, reused by OnPrimarySend

	now   sim.Time
	tel   *Telemetry
	stats Stats

	// tr, when set via SetTrace, mirrors gateway control events — hedges,
	// cancellations, retries, breaker transitions — onto a trace track as
	// instant events.
	tr    *telemetry.Tracer
	trPid int
	trTid int
}

// SetTrace points gateway control events at a Chrome-trace track. The
// gateway only observes through it; decisions are unchanged.
func (g *Gateway) SetTrace(tr *telemetry.Tracer, pid, tid int) {
	g.tr = tr
	g.trPid = pid
	g.trTid = tid
}

// traceInstant drops one control event on the trace track (no-op untraced).
func (g *Gateway) traceInstant(name string, ts sim.Time, replica int) {
	if g.tr == nil {
		return
	}
	g.tr.Instant("fleet", name, g.trPid, g.trTid, float64(ts), "replica", float64(replica))
}

// New builds a gateway over the given fabric. models fixes the model index
// space (the same indexes the fabric methods use); reg, when non-nil,
// registers the krisp_gateway_* series.
func New(cfg Config, models []ModelSLO, fabric Fabric, reg *telemetry.Registry) *Gateway {
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []Tenant{{ID: 0, Weight: 1}}
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = 500 * sim.Microsecond
	}
	switch {
	case cfg.Budget == 0:
		cfg.Budget = 0.1
	case cfg.Budget < 0:
		cfg.Budget = 0
	}

	g := &Gateway{
		cfg:      cfg,
		fabric:   fabric,
		byTenant: make(map[int]int, len(cfg.Tenants)),
		breakers: make(map[int]*Breaker),
		byID:     make(map[uint64]*track),
		budget:   NewBudget(cfg.Budget, budgetBurst),
	}
	for _, m := range models {
		g.models = append(g.models, modelState{name: m.Name, sloUs: m.SLOUs})
	}

	sumW := 0.0
	classes := 1
	for i := range cfg.Tenants {
		if cfg.Tenants[i].Weight <= 0 {
			cfg.Tenants[i].Weight = 1
		}
		sumW += cfg.Tenants[i].Weight
		if cfg.Tenants[i].Class+1 > classes {
			classes = cfg.Tenants[i].Class + 1
		}
	}
	g.classes = classes

	if cfg.GlobalRatePerSec > 0 {
		burst := cfg.GlobalBurst
		if burst <= 0 {
			burst = cfg.GlobalRatePerSec * 0.1
			if burst < 16 {
				burst = 16
			}
		}
		g.global = NewTokenBucket(cfg.GlobalRatePerSec, burst)
	}
	for i, t := range cfg.Tenants {
		// A zero rate (no global rate) leaves the bucket unlimited.
		rate := cfg.GlobalRatePerSec * t.Weight / sumW * overSubscription
		burst := rate * 0.1
		if burst < 8 {
			burst = 8
		}
		g.tenants = append(g.tenants, tenantState{
			idx:    i,
			cfg:    t,
			bucket: NewTokenBucket(rate, burst),
			stats:  TenantStats{ID: t.ID},
		})
		g.byTenant[t.ID] = i
	}
	g.stats.ShedByClass = make([]uint64, classes)
	g.tel = NewTelemetry(reg, cfg.Tenants)
	return g
}

// DeadlineEnabled reports whether deadline admission is active (the router
// uses it to decide whether queue admission should consult the oracle).
func (g *Gateway) DeadlineEnabled() bool { return !g.cfg.DisableDeadline }

// TenantIndex maps a tenant ID onto its dense index (unknown IDs map to
// tenant 0 so a misconfigured trace degrades instead of panicking).
func (g *Gateway) TenantIndex(id int) int {
	if i, ok := g.byTenant[id]; ok {
		return i
	}
	return 0
}

// Class returns the priority class of the tenant at the given index.
func (g *Gateway) Class(tenantIdx int) int { return g.tenants[tenantIdx].cfg.Class }

// BeginTick refills every bucket to now. The fleet calls it once per
// control tick, before admitting the tick's arrivals.
func (g *Gateway) BeginTick(now sim.Time) {
	g.now = now
	g.global.Refill(now)
	for i := range g.tenants {
		g.tenants[i].bucket.Refill(now)
	}
}

// Admit decides one request's fate. It consumes tokens only when the
// request is admitted, checks cheapest-reject-first (deadline before
// buckets), and performs no heap allocation — the per-request overhead the
// BENCH_PR6 admission benchmark pins at 0 allocs/op.
func (g *Gateway) Admit(now, arrival sim.Time, model, tenantIdx int) Verdict {
	t := &g.tenants[tenantIdx]
	if !g.cfg.DisableDeadline {
		slack := float64(arrival - now) // arrivals within the tick sit in the future
		slack += g.models[model].sloUs
		if g.fabric.BestLatencyUs(model, now) > slack {
			g.shed(t, ShedDeadline)
			return ShedDeadline
		}
	}
	if !t.bucket.Take(1) {
		g.shed(t, ShedTenantRate)
		return ShedTenantRate
	}
	// Priority classes keep a reserve in the global bucket: class c may
	// only draw while the bucket stays above c/classes of its depth, so
	// when overload drains the bucket, the lowest classes starve first.
	reserve := g.global.burst * float64(t.cfg.Class) / float64(g.classes)
	if !g.global.TakeAbove(1, reserve) {
		t.bucket.Put(1)
		g.shed(t, ShedOverload)
		return ShedOverload
	}
	g.stats.Admitted++
	t.stats.Admitted++
	g.tel.admit(tenantIdx)
	return Admitted
}

func (g *Gateway) shed(t *tenantState, v Verdict) {
	switch v {
	case ShedDeadline:
		g.stats.ShedDeadline++
	case ShedTenantRate:
		g.stats.ShedTenant++
	case ShedOverload:
		g.stats.ShedOverload++
	}
	g.stats.ShedByClass[t.cfg.Class]++
	t.stats.Shed++
	g.tel.shed(v, t.idx)
}

// OnQueueShed records a request shed from the router's admission queue
// after its remaining deadline budget fell below the estimated service
// time.
func (g *Gateway) OnQueueShed(model, tenantIdx int) {
	t := &g.tenants[tenantIdx]
	g.stats.ShedQueue++
	g.stats.ShedByClass[t.cfg.Class]++
	t.stats.Shed++
	g.tel.queueShed(tenantIdx)
}

// AddReplica registers a replica and returns its circuit breaker (nil when
// breakers are disabled) for the router to consult on every pick.
func (g *Gateway) AddReplica(replica int) *Breaker {
	if g.cfg.DisableBreakers {
		return nil
	}
	var b *Breaker
	if n := len(g.breakerFree); n > 0 {
		b = g.breakerFree[n-1]
		g.breakerFree[n-1] = nil
		g.breakerFree = g.breakerFree[:n-1]
		b.reset()
	} else {
		b = NewBreaker(BreakerConfig{})
	}
	b.gw, b.replica = g, replica
	g.breakers[replica] = b
	return b
}

// breakerTransition accounts one state change of replica's breaker.
func (g *Gateway) breakerTransition(replica int, to BreakerState) {
	switch to {
	case BreakerOpen:
		g.stats.BreakerOpens++
		g.tel.breakerOpen()
		g.traceInstant("breaker-open", g.now, replica)
	case BreakerHalfOpen:
		g.stats.BreakerHalfOpens++
		g.tel.breakerHalfOpen()
		g.traceInstant("breaker-half-open", g.now, replica)
	case BreakerClosed:
		g.stats.BreakerCloses++
		g.tel.breakerClose()
		g.traceInstant("breaker-closed", g.now, replica)
	}
}

// RemoveReplica forgets a drained or dead replica's breaker and parks it
// for a later AddReplica. Replica ids are never reused, so lookups for
// the removed id find no breaker (a no-op) from here on.
func (g *Gateway) RemoveReplica(replica int) {
	b := g.breakers[replica]
	if b == nil {
		return
	}
	if b.State() == BreakerOpen {
		g.tel.breakerGone()
	}
	delete(g.breakers, replica)
	g.breakerFree = append(g.breakerFree, b)
}

// OnPrimarySend tracks a routed request and credits the hedge/retry
// budget. deadline is arrival + the model's SLO.
func (g *Gateway) OnPrimarySend(id uint64, model, tenantIdx, replica int, arrival, now sim.Time) {
	g.budget.Credit()
	g.stats.Primaries++
	g.breakers[replica].OnSend()
	var t *track
	if n := len(g.free); n > 0 {
		t = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		t = new(track)
	}
	*t = track{
		id:       id,
		model:    int32(model),
		tenant:   int32(tenantIdx),
		arrival:  arrival,
		deadline: arrival + sim.Duration(g.models[model].sloUs),
		sentAt:   now,
		primary:  replica,
		hedge:    -1,
	}
	g.inflight = append(g.inflight, t)
	g.byID[id] = t
}

// HedgeDelay returns the model's current hedge trigger: the windowed P95
// of winning end-to-end latencies, floored at HedgeMinDelay. A cold window
// uses half the SLO.
func (g *Gateway) HedgeDelay(model int) sim.Duration {
	p95 := g.models[model].lat.P95()
	if g.models[model].lat.Len() == 0 {
		p95 = g.models[model].sloUs / 2
	}
	d := sim.Duration(p95)
	if d < g.cfg.HedgeMinDelay {
		d = g.cfg.HedgeMinDelay
	}
	return d
}

// HedgeScan walks the in-flight set (in send order — deterministic) and
// hedges every request stuck past its model's hedge delay, subject to the
// budget and to a second replica existing. The fleet calls it once per
// tick.
func (g *Gateway) HedgeScan(now sim.Time) {
	if g.cfg.DisableHedging {
		return
	}
	for _, t := range g.inflight {
		if t.resolved || t.hedge >= 0 || t.primary < 0 {
			continue
		}
		if now >= t.deadline || now-t.sentAt < g.HedgeDelay(int(t.model)) {
			continue
		}
		if !g.budget.Take() {
			g.tel.denied()
			continue
		}
		r := g.fabric.PickReplica(int(t.model), t.primary, now)
		if r < 0 {
			g.budget.Refund()
			continue
		}
		t.hedge = r
		t.hedgeSentAt = now
		g.stats.Hedges++
		g.tel.hedge()
		g.traceInstant("hedge", now, r)
		g.breakers[r].OnSend()
		g.fabric.SendCopy(int(t.model), r, t.id, t.arrival, CopyHedge)
	}
	g.compact()
}

// OnCompletion resolves one copy's completion. It returns true when this
// completion is the request's winner (the caller should count it toward
// latency and SLO metrics) and false for the losing copy of a hedge or an
// already-resolved request.
func (g *Gateway) OnCompletion(id uint64, replica int, end, now sim.Time) bool {
	t := g.byID[id]
	if t == nil || t.resolved {
		return false
	}
	var copySent sim.Time
	var loser int
	hedgeWon := false
	switch replica {
	case t.primary:
		copySent, loser = t.sentAt, t.hedge
	case t.hedge:
		copySent, loser = t.hedgeSentAt, t.primary
		hedgeWon = true
	default:
		// A copy on a replica the tracker already dropped (its node died
		// between the batch finishing and the pull); the request was
		// retried or failed — this completion is stale.
		return false
	}

	lat := float64(end - t.arrival)
	m := &g.models[t.model]
	m.lat.Add(lat)
	// The winner's breaker judges its own service: time from this copy's
	// send to completion, against the SLO.
	g.breakers[replica].Record(now, float64(end-copySent) <= m.sloUs)

	if hedgeWon {
		g.stats.HedgeWins++
		g.tel.hedgeWin()
		// The primary lost to a copy that started later: that is a timeout
		// in all but name, and its breaker should know.
		if loser >= 0 {
			g.breakers[loser].Record(now, false)
		}
	}
	if loser >= 0 {
		g.stats.Cancelled++
		g.tel.cancel()
		g.traceInstant("hedge-cancel", now, loser)
		g.fabric.CancelCopy(loser, id)
	}
	g.resolve(t)
	return true
}

// OnReplicaDown drops every copy on a dead replica: requests with a
// surviving copy continue; the rest are retried (budget and deadline
// permitting) or failed. Returns how many requests were lost for the
// fleet's Failed accounting.
func (g *Gateway) OnReplicaDown(replica int, now sim.Time) (failed int) {
	g.RemoveReplica(replica)
	for _, t := range g.inflight {
		if t.resolved {
			continue
		}
		hit := false
		if t.primary == replica {
			t.primary, hit = -1, true
		}
		if t.hedge == replica {
			t.hedge, hit = -1, true
		}
		if !hit {
			continue
		}
		if t.primary >= 0 || t.hedge >= 0 {
			continue // the other copy is still running
		}
		if g.retry(t, now) {
			continue
		}
		g.resolve(t)
		failed++
	}
	g.compact()
	return failed
}

// retry re-sends a request whose every copy died. The retry becomes the
// new primary.
func (g *Gateway) retry(t *track, now sim.Time) bool {
	if g.cfg.DisableRetry || now >= t.deadline {
		return false
	}
	if !g.cfg.DisableDeadline &&
		g.fabric.BestLatencyUs(int(t.model), now) > float64(t.deadline-now) {
		return false
	}
	if !g.budget.Take() {
		g.tel.denied()
		return false
	}
	r := g.fabric.PickReplica(int(t.model), -1, now)
	if r < 0 {
		g.budget.Refund()
		return false
	}
	t.primary = r
	t.sentAt = now
	g.stats.Retries++
	g.tel.retry()
	g.traceInstant("retry", now, r)
	g.breakers[r].OnSend()
	g.fabric.SendCopy(int(t.model), r, t.id, t.arrival, CopyRetry)
	return true
}

func (g *Gateway) resolve(t *track) {
	t.resolved = true
	delete(g.byID, t.id)
	g.resolved++
}

// compact drops resolved tracks once they dominate the in-flight slice,
// onto the free list: resolve already removed them from byID, so the
// in-flight slice held their last reference.
func (g *Gateway) compact() {
	if g.resolved < 64 || g.resolved*2 < len(g.inflight) {
		return
	}
	kept := g.inflight[:0]
	for _, t := range g.inflight {
		if t.resolved {
			g.free = append(g.free, t)
		} else {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(g.inflight); i++ {
		g.inflight[i] = nil
	}
	g.inflight = kept
	g.resolved = 0
}

// BudgetDenied returns how many secondary sends the budget refused.
func (g *Gateway) BudgetDenied() uint64 { return g.budget.Denied() }

// Snapshot returns a copy of the cumulative stats (slices cloned), with
// the budget counters folded in.
func (g *Gateway) Snapshot() *Stats {
	s := g.stats
	s.BudgetDenied = g.budget.Denied()
	s.BudgetRatio = g.budget.ratio
	s.BudgetBurst = g.budget.burst
	s.ShedByClass = append([]uint64(nil), g.stats.ShedByClass...)
	s.Tenants = make([]TenantStats, len(g.tenants))
	for i := range g.tenants {
		s.Tenants[i] = g.tenants[i].stats
	}
	return &s
}

// String renders a one-line summary (CLI exit tables).
func (s *Stats) String() string {
	return fmt.Sprintf(
		"admitted %d, shed %d (deadline %d, tenant-rate %d, overload %d, queue %d), hedges %d (wins %d), retries %d, budget-denied %d, breaker opens %d / closes %d",
		s.Admitted, s.Shed(), s.ShedDeadline, s.ShedTenant, s.ShedOverload, s.ShedQueue,
		s.Hedges, s.HedgeWins, s.Retries, s.BudgetDenied, s.BreakerOpens, s.BreakerCloses)
}
