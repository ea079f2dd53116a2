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
	transitions := []BreakerState{}
	b := NewBreaker(BreakerConfig{Window: 8, MinVolume: 4, FailureRate: 0.5, Cooldown: sim.Millisecond, Probes: 1})
	b.onTransition = func(_, to BreakerState) { transitions = append(transitions, to) }

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
	b.OnSend()
	b.Record(now, true)
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe should close, got %v", b.State())
	}

	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
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

func BenchmarkGatewayAdmission(b *testing.B) {
	g := admissionBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Admit(0, 0, 0, 0)
	}
}
