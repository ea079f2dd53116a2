package gateway

import (
	"testing"

	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// fakeFabric is a scripted routing layer: PickReplica returns the first
// entry of pickQueue not equal to exclude (or -1), and every send/cancel
// is logged for assertions.
type fakeFabric struct {
	picks   []int
	bestUs  float64
	sends   []fakeSend
	cancels []fakeCancel
}

type fakeSend struct {
	model, replica int
	id             uint64
	kind           CopyKind
}

type fakeCancel struct {
	replica int
	id      uint64
}

func (f *fakeFabric) PickReplica(model, exclude int, now sim.Time) int {
	for _, p := range f.picks {
		if p != exclude {
			return p
		}
	}
	return -1
}

func (f *fakeFabric) SendCopy(model, replica int, id uint64, arrival sim.Time, kind CopyKind) {
	f.sends = append(f.sends, fakeSend{model, replica, id, kind})
}

func (f *fakeFabric) CancelCopy(replica int, id uint64) {
	f.cancels = append(f.cancels, fakeCancel{replica, id})
}

func (f *fakeFabric) BestLatencyUs(model int, now sim.Time) float64 { return f.bestUs }

func testModels() []ModelSLO {
	return []ModelSLO{{Name: "m0", SLOUs: 10_000}}
}

func TestTokenBucketRefillAndTake(t *testing.T) {
	b := NewTokenBucket(1000, 10) // 1000/s, depth 10
	if !b.Take(10) {
		t.Fatal("full bucket should cover its burst")
	}
	if b.Take(1) {
		t.Fatal("empty bucket granted a token")
	}
	b.Refill(5 * sim.Millisecond) // 1000/s * 5ms = 5 tokens
	if got := b.Tokens(); got < 4.999 || got > 5.001 {
		t.Fatalf("after 5ms at 1000/s want ~5 tokens, got %v", got)
	}
	b.Refill(10 * sim.Second)
	if got := b.Tokens(); got != 10 {
		t.Fatalf("refill must cap at burst: got %v", got)
	}
	// Unlimited bucket: rate <= 0 always grants.
	u := NewTokenBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if !u.Take(1) {
			t.Fatal("unlimited bucket denied")
		}
	}
}

func TestTokenBucketReserve(t *testing.T) {
	b := NewTokenBucket(100, 10)
	// Reserve of 5: only the top half is drawable.
	for i := 0; i < 5; i++ {
		if !b.TakeAbove(1, 5) {
			t.Fatalf("take %d above reserve should succeed", i)
		}
	}
	if b.TakeAbove(1, 5) {
		t.Fatal("take below reserve must fail")
	}
	if !b.TakeAbove(1, 0) {
		t.Fatal("reserve 0 should still see the reserved tokens")
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	g := New(Config{}, nil, nil, nil)
	b := NewBreaker(BreakerConfig{Window: 8, MinVolume: 4, FailureRate: 0.5, Cooldown: sim.Millisecond, Probes: 1})
	b.gw, b.replica = g, 0

	now := sim.Time(0)
	// Three failures in a row: below MinVolume, must stay closed.
	for i := 0; i < 3; i++ {
		b.Record(now, false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("tripped below MinVolume: %v", b.State())
	}
	b.Record(now, false) // 4th failure: 4/4 >= 0.5 with volume met
	if b.State() != BreakerOpen {
		t.Fatalf("want open, got %v", b.State())
	}
	if b.Allow(now) {
		t.Fatal("open breaker allowed traffic before cooldown")
	}

	// Cooldown expires: Allow flips to half-open and admits one probe.
	now += 2 * sim.Millisecond
	if !b.Allow(now) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("want half-open, got %v", b.State())
	}
	b.OnSend()
	if b.Allow(now) {
		t.Fatal("second concurrent probe allowed with Probes=1")
	}
	// Probe fails: re-open.
	b.Record(now, false)
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe should re-open, got %v", b.State())
	}

	// Next probe succeeds: closed.
	now += 2 * sim.Millisecond
	if !b.Allow(now) {
		t.Fatal("second cooldown refused the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("want half-open, got %v", b.State())
	}
	b.OnSend()
	b.Record(now, true)
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe should close, got %v", b.State())
	}

	// The state checks above pin the order (open, half-open, open,
	// half-open, closed); the gateway must have accounted each one.
	if s := g.stats; s.BreakerOpens != 2 || s.BreakerHalfOpens != 2 || s.BreakerCloses != 1 {
		t.Fatalf("gateway saw %d opens, %d half-opens, %d closes; want 2, 2, 1",
			s.BreakerOpens, s.BreakerHalfOpens, s.BreakerCloses)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b := NewBreaker(BreakerConfig{Window: 4, MinVolume: 4, FailureRate: 0.75})
	now := sim.Time(0)
	// 2 failures then 2 successes: rate 0.5 < 0.75, closed.
	b.Record(now, false)
	b.Record(now, false)
	b.Record(now, true)
	b.Record(now, true)
	if b.State() != BreakerClosed {
		t.Fatal("rate below threshold must stay closed")
	}
	// Two more failures slide the successes out: window is F F T T -> T T F F
	// after two pushes... 3/4 on the third.
	b.Record(now, false)
	b.Record(now, false)
	if b.State() != BreakerClosed {
		t.Fatal("2/4 failures must stay closed")
	}
	b.Record(now, false)
	if b.State() != BreakerOpen {
		t.Fatal("3/4 failures at threshold 0.75 must open")
	}
}

func TestBudgetInvariant(t *testing.T) {
	b := NewBudget(0.5, 4)
	granted := uint64(0)
	for i := 0; i < 100; i++ {
		b.Credit()
		if b.Take() {
			granted++
		}
		if b.Take() { // second take same credit: must eventually be denied
			granted++
		}
	}
	// Invariant: granted <= ratio*primaries + burst.
	if max := uint64(0.5*100 + 4); granted > max {
		t.Fatalf("budget leaked: granted %d > %d", granted, max)
	}
	if b.Denied() == 0 {
		t.Fatal("overdraw never denied")
	}
	// Disabled budget never grants.
	d := NewBudget(0, 0)
	d.Credit()
	if d.Take() {
		t.Fatal("disabled budget granted")
	}
}

// TestTenantBuckets pins each tenant's bucket: it refills at twice the
// tenant's weighted share of the global rate and holds 100ms of that
// rate, at least 8 tokens. Without a global rate every bucket is
// unlimited.
func TestTenantBuckets(t *testing.T) {
	for _, tc := range []struct {
		global        float64
		weights       []float64
		rates, bursts []float64
	}{
		{1000, []float64{1, 3}, []float64{500, 1500}, []float64{50, 150}},
		{40, []float64{1, 1}, []float64{40, 40}, []float64{8, 8}},
		{0, []float64{1, 3}, []float64{0, 0}, []float64{8, 8}},
	} {
		cfg := Config{GlobalRatePerSec: tc.global}
		for i, w := range tc.weights {
			cfg.Tenants = append(cfg.Tenants, Tenant{ID: i, Weight: w})
		}
		if got, want := cfg.RateLimited(), tc.global > 0; got != want {
			t.Errorf("global %v: RateLimited = %v, want %v", tc.global, got, want)
		}
		g := New(cfg, testModels(), &fakeFabric{}, nil)
		for i := range tc.weights {
			b := &g.tenants[i].bucket
			if b.rate != tc.rates[i] || b.burst != tc.bursts[i] {
				t.Errorf("global %v, tenant %d: rate %v burst %v, want %v and %v",
					tc.global, i, b.rate, b.burst, tc.rates[i], tc.bursts[i])
			}
			if tc.global > 0 {
				continue
			}
			for n := 0; n < 1000; n++ {
				if !b.Take(1) {
					t.Fatalf("tenant %d: unlimited bucket refused take %d", i, n)
				}
			}
		}
	}
}

// TestRetryBudgetDepth pins the retry/hedge budget bank at 16: a fresh
// gateway grants 16 secondaries before any primary is credited, then
// denies.
func TestRetryBudgetDepth(t *testing.T) {
	g := New(Config{}, testModels(), &fakeFabric{}, nil)
	if got := g.Snapshot().BudgetBurst; got != 16 {
		t.Fatalf("budget depth %v, want 16", got)
	}
	for i := 0; i < 16; i++ {
		if !g.budget.Take() {
			t.Fatalf("take %d denied from a full 16-deep bank", i)
		}
	}
	if g.budget.Take() {
		t.Fatal("take 17 granted from a 16-deep bank")
	}
}

func TestAdmitVerdicts(t *testing.T) {
	fab := &fakeFabric{picks: []int{1}, bestUs: 1000}
	g := New(Config{
		Tenants:          []Tenant{{ID: 7, Weight: 1, Class: 0}, {ID: 8, Weight: 1, Class: 1}},
		GlobalRatePerSec: 1000,
		GlobalBurst:      16,
	}, testModels(), fab, nil)
	g.BeginTick(0)

	if got := g.Admit(0, 0, 0, 0); got != Admitted {
		t.Fatalf("plain admit: %v", got)
	}
	// Deadline: best latency 1000us > slack when SLO already blown.
	fab.bestUs = 20_000
	if got := g.Admit(0, 0, 0, 0); got != ShedDeadline {
		t.Fatalf("infeasible deadline: %v", got)
	}
	fab.bestUs = 1000

	// Drain tenant 8's bucket (class 1): its global reserve is half the
	// depth, so it sheds on overload before the global bucket is empty.
	t8 := g.TenantIndex(8)
	sawOverload := false
	for i := 0; i < 10_000; i++ {
		v := g.Admit(0, 0, 0, t8)
		if v == ShedOverload {
			sawOverload = true
			break
		}
		if v == ShedTenantRate {
			break
		}
	}
	if !sawOverload {
		t.Fatal("class-1 tenant never hit the global reserve")
	}
	// Class 0 can still draw from the reserve.
	if got := g.Admit(0, 0, 0, g.TenantIndex(7)); got != Admitted && got != ShedTenantRate {
		t.Fatalf("class-0 should keep drawing the reserve, got %v", got)
	}

	s := g.Snapshot()
	if s.Shed() == 0 || s.ShedDeadline != 1 {
		t.Fatalf("stats not recorded: %+v", s)
	}
}

func TestAdmitUnlimitedNeverSheds(t *testing.T) {
	fab := &fakeFabric{picks: []int{0}, bestUs: 100}
	cfg := Config{}
	if cfg.RateLimited() {
		t.Fatal("zero config claims rate-limited")
	}
	g := New(cfg, testModels(), fab, nil)
	g.BeginTick(0)
	for i := 0; i < 10_000; i++ {
		if v := g.Admit(0, 0, 0, 0); v != Admitted {
			t.Fatalf("unlimited gateway shed: %v", v)
		}
	}
}

func TestHedgeLifecycle(t *testing.T) {
	fab := &fakeFabric{picks: []int{1, 2}, bestUs: 100}
	g := New(Config{HedgeMinDelay: sim.Millisecond, Budget: 1}, testModels(), fab, nil)
	g.BeginTick(0)

	g.OnPrimarySend(42, 0, 0, 1, 0, 0)
	// Before the delay: no hedge.
	g.HedgeScan(500 * sim.Microsecond)
	if len(fab.sends) != 0 {
		t.Fatalf("hedged before delay: %+v", fab.sends)
	}
	// Past the delay (cold window -> max(SLO/2=5ms, min 1ms) = 5ms).
	g.HedgeScan(6 * sim.Millisecond)
	if len(fab.sends) != 1 || fab.sends[0].kind != CopyHedge || fab.sends[0].replica != 2 {
		t.Fatalf("want one hedge to replica 2, got %+v", fab.sends)
	}
	// Second scan must not re-hedge.
	g.HedgeScan(7 * sim.Millisecond)
	if len(fab.sends) != 1 {
		t.Fatalf("re-hedged: %+v", fab.sends)
	}

	// Hedge completes first: winner, loser (primary replica 1) cancelled.
	if !g.OnCompletion(42, 2, 8*sim.Millisecond, 8*sim.Millisecond) {
		t.Fatal("hedge completion should win")
	}
	if len(fab.cancels) != 1 || fab.cancels[0].replica != 1 || fab.cancels[0].id != 42 {
		t.Fatalf("want cancel of primary copy, got %+v", fab.cancels)
	}
	// The cancelled primary's completion, if it still arrives, must not count.
	if g.OnCompletion(42, 1, 9*sim.Millisecond, 9*sim.Millisecond) {
		t.Fatal("losing copy counted")
	}
	s := g.Snapshot()
	if s.Hedges != 1 || s.HedgeWins != 1 || s.Cancelled != 1 {
		t.Fatalf("hedge stats wrong: %+v", s)
	}
}

func TestHedgeRespectsDeadlineAndBudget(t *testing.T) {
	fab := &fakeFabric{picks: []int{1, 2}, bestUs: 100}
	g := New(Config{HedgeMinDelay: sim.Millisecond, Budget: -1}, testModels(), fab, nil)
	g.BeginTick(0)
	g.OnPrimarySend(1, 0, 0, 1, 0, 0)
	g.HedgeScan(6 * sim.Millisecond)
	if len(fab.sends) != 0 {
		t.Fatal("disabled budget still hedged")
	}
	if g.BudgetDenied() == 0 {
		t.Fatal("budget denial not counted")
	}

	// Past the deadline: pointless hedge suppressed even with budget.
	g2 := New(Config{HedgeMinDelay: sim.Millisecond, Budget: 10}, testModels(), fab, nil)
	g2.OnPrimarySend(1, 0, 0, 1, 0, 0)
	g2.HedgeScan(11 * sim.Millisecond) // SLO is 10ms
	if len(fab.sends) != 0 {
		t.Fatal("hedged past the deadline")
	}
}

func TestReplicaDownRetriesOrFails(t *testing.T) {
	fab := &fakeFabric{picks: []int{5}, bestUs: 100}
	g := New(Config{Budget: 1}, testModels(), fab, nil)
	g.BeginTick(0)

	g.OnPrimarySend(1, 0, 0, 3, 0, 0)
	if failed := g.OnReplicaDown(3, sim.Millisecond); failed != 0 {
		t.Fatalf("retryable request counted as failed: %d", failed)
	}
	if len(fab.sends) != 1 || fab.sends[0].kind != CopyRetry || fab.sends[0].replica != 5 {
		t.Fatalf("want retry to replica 5, got %+v", fab.sends)
	}
	// The retried request resolves normally on the new replica.
	if !g.OnCompletion(1, 5, 2*sim.Millisecond, 2*sim.Millisecond) {
		t.Fatal("retried completion should count")
	}

	// No replica available: the request fails.
	fab.sends = nil
	fab.picks = nil
	g.OnPrimarySend(2, 0, 0, 4, 0, 0)
	if failed := g.OnReplicaDown(4, sim.Millisecond); failed != 1 {
		t.Fatalf("unretryable request not failed: %d", failed)
	}
	// Past the deadline: fail without consuming budget.
	fab.picks = []int{6}
	g.OnPrimarySend(3, 0, 0, 4, 0, 0)
	if failed := g.OnReplicaDown(4, 11*sim.Millisecond); failed != 1 {
		t.Fatalf("expired request not failed: %d", failed)
	}
	s := g.Snapshot()
	if s.Retries != 1 {
		t.Fatalf("want 1 retry, got %+v", s)
	}
}

func TestReplicaDownSurvivingHedgeContinues(t *testing.T) {
	fab := &fakeFabric{picks: []int{1, 2}, bestUs: 100}
	g := New(Config{HedgeMinDelay: sim.Millisecond, Budget: 1}, testModels(), fab, nil)
	g.BeginTick(0)
	g.OnPrimarySend(9, 0, 0, 1, 0, 0)
	g.HedgeScan(6 * sim.Millisecond)
	if len(fab.sends) != 1 {
		t.Fatalf("no hedge: %+v", fab.sends)
	}
	// Primary's replica dies; the hedge copy is still alive, so nothing fails.
	if failed := g.OnReplicaDown(1, 7*sim.Millisecond); failed != 0 {
		t.Fatalf("request with live hedge failed: %d", failed)
	}
	// Hedge completes: wins, but there is no loser copy left to cancel.
	if !g.OnCompletion(9, 2, 8*sim.Millisecond, 8*sim.Millisecond) {
		t.Fatal("surviving hedge should win")
	}
	if len(fab.cancels) != 0 {
		t.Fatalf("cancelled a dead copy: %+v", fab.cancels)
	}
}

func TestGatewayTelemetryMirrorsStats(t *testing.T) {
	reg := telemetry.NewHub(false).Registry()
	fab := &fakeFabric{picks: []int{1, 2}, bestUs: 100}
	g := New(Config{HedgeMinDelay: sim.Millisecond, Budget: 1, GlobalRatePerSec: 1e6},
		testModels(), fab, reg)
	g.BeginTick(0)

	g.Admit(0, 0, 0, 0)
	g.OnPrimarySend(1, 0, 0, 1, 0, 0)
	g.HedgeScan(6 * sim.Millisecond)
	g.OnCompletion(1, 2, 8*sim.Millisecond, 8*sim.Millisecond)

	find := func(name string) uint64 {
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				return uint64(s.Value)
			}
		}
		t.Fatalf("series %q not registered", name)
		return 0
	}
	if got := find("krisp_gateway_admitted_total"); got != 1 {
		t.Fatalf("admitted counter: %d", got)
	}
	if got := find("krisp_gateway_hedges_total"); got != 1 {
		t.Fatalf("hedges counter: %d", got)
	}
	if got := find("krisp_gateway_hedge_wins_total"); got != 1 {
		t.Fatalf("hedge wins counter: %d", got)
	}
	if got := find("krisp_gateway_cancelled_total"); got != 1 {
		t.Fatalf("cancelled counter: %d", got)
	}
}

// admissionBench is a gateway whose buckets never run dry, so every Admit
// takes the full admit path.
func admissionBench() *Gateway {
	fab := &fakeFabric{picks: []int{1}, bestUs: 100}
	g := New(Config{GlobalRatePerSec: 1e12, GlobalBurst: 1e12}, testModels(), fab, nil)
	g.BeginTick(0)
	return g
}

// TestAdmitZeroAlloc guards the admission hot path: one Admit allocates
// nothing.
func TestAdmitZeroAlloc(t *testing.T) {
	g := admissionBench()
	if allocs := testing.AllocsPerRun(100, func() { g.Admit(0, 0, 0, 0) }); allocs != 0 {
		t.Fatalf("Admit allocates %.1f/op, want 0", allocs)
	}
}

// TestGatewayTrackReuseZeroAlloc guards the per-request tracking path:
// once compact has stocked the free list, a send, a hedge scan and the
// completion that resolves the request allocate nothing.
func TestGatewayTrackReuseZeroAlloc(t *testing.T) {
	fab := &fakeFabric{picks: []int{1, 2}, bestUs: 100}
	g := New(Config{}, testModels(), fab, nil)
	id := uint64(0)
	cycle := func() {
		id++
		now := sim.Time(id) * sim.Microsecond
		g.OnPrimarySend(id, 0, 0, 1, now, now)
		g.HedgeScan(now)
		if !g.OnCompletion(id, 1, now+100, now+100) {
			t.Fatalf("request %d: completion did not win", id)
		}
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("send/scan/complete cycle allocates %.2f/op, want 0", allocs)
	}
	if len(fab.sends) != 0 {
		t.Fatalf("hedged a request that completed inside its delay: %+v", fab.sends)
	}
}

func BenchmarkGatewayAdmission(b *testing.B) {
	g := admissionBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Admit(0, 0, 0, 0)
	}
}

// TestRemovedBreakerIsReused: RemoveReplica parks the breaker and the next
// AddReplica resets it — closed, empty window — and accounts its
// transitions under the new replica, with no allocation per cycle.
func TestRemovedBreakerIsReused(t *testing.T) {
	g := New(Config{}, nil, nil, nil)
	b := g.AddReplica(1)
	for i := 0; i < 3; i++ {
		b.Record(0, true)
	}
	b.Trip(0)
	g.RemoveReplica(1)
	if g.breakers[1] != nil {
		t.Fatal("removed replica still has a breaker")
	}
	r := g.AddReplica(2)
	if r != b {
		t.Fatal("AddReplica built a new breaker while one was parked")
	}
	if r.State() != BreakerClosed || r.n != 0 || r.failures != 0 || r.probesOut != 0 || r.replica != 2 {
		t.Fatalf("reused breaker not reset: %+v", *r)
	}
	opens := g.stats.BreakerOpens
	cfg := r.cfg
	for i := 0; i < cfg.MinVolume; i++ {
		r.Record(0, false)
	}
	if r.State() != BreakerOpen || g.stats.BreakerOpens != opens+1 {
		t.Fatalf("reused breaker: state %v, opens %d -> %d", r.State(), opens, g.stats.BreakerOpens)
	}
	id := 2
	if allocs := testing.AllocsPerRun(100, func() {
		g.RemoveReplica(id)
		id++
		g.AddReplica(id)
	}); allocs != 0 {
		t.Fatalf("remove/add cycle allocates %.1f/op", allocs)
	}
}
