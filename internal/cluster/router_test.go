package cluster

import (
	"testing"
)

// fakeHandles builds a model with n routable replicas (no live server
// replica behind them — pick never touches rep).
func fakeModel(n int) *modelState {
	m := &modelState{name: "m", batch: 8, sloUs: 20000}
	for i := 0; i < n; i++ {
		m.replicas = append(m.replicas, &replicaHandle{id: i})
	}
	return m
}

func testRouter(p Policy) *router {
	return newRouter(p, 1, 4, 8, nil, false)
}

func TestPickRoundRobinCycles(t *testing.T) {
	r := testRouter(RoundRobin)
	m := fakeModel(3)
	var got []int
	for i := 0; i < 6; i++ {
		h := r.pick(m, 0, -1)
		if h == nil {
			t.Fatal("no replica picked")
		}
		got = append(got, h.id)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin order = %v, want %v", got, want)
		}
	}
}

func TestPickSkipsUnroutable(t *testing.T) {
	for _, p := range Policies() {
		r := testRouter(p)
		m := fakeModel(4)
		m.replicas[0].draining = true
		m.replicas[1].dead = true
		m.replicas[2].readyAt = 100 // not ready at t=0
		for i := 0; i < 5; i++ {
			h := r.pick(m, 0, -1)
			if h == nil {
				t.Fatalf("%v: no replica picked", p)
			}
			if h.id != 3 {
				t.Fatalf("%v: picked unroutable replica %d", p, h.id)
			}
		}
		// At t=100 the warming replica becomes eligible.
		seen := map[int]bool{}
		for i := 0; i < 8; i++ {
			seen[r.pick(m, 100, -1).id] = true
		}
		if !seen[2] && p != SLOAware {
			// SLO-aware may legitimately stick to one replica while
			// outstanding counts are equal priors; the others must rotate
			// or sample replica 2 in.
			t.Fatalf("%v: never picked newly-ready replica", p)
		}
	}
}

func TestPickLeastOutstanding(t *testing.T) {
	r := testRouter(LeastOutstanding)
	m := fakeModel(3)
	m.replicas[0].outstanding = 2
	m.replicas[1].outstanding = 1
	m.replicas[2].outstanding = 3
	if h := r.pick(m, 0, -1); h.id != 1 {
		t.Fatalf("picked %d, want 1", h.id)
	}
}

func TestPickRespectsOutstandingCap(t *testing.T) {
	for _, p := range Policies() {
		r := testRouter(p) // cap = 4
		m := fakeModel(2)
		m.replicas[0].outstanding = 4
		m.replicas[1].outstanding = 4
		if h := r.pick(m, 0, -1); h != nil {
			t.Fatalf("%v: picked replica %d with every candidate at cap", p, h.id)
		}
		m.replicas[1].outstanding = 3
		if h := r.pick(m, 0, -1); h == nil || h.id != 1 {
			t.Fatalf("%v: did not pick the only replica under cap", p)
		}
	}
}

func TestSLOAwareAvoidsSlowReplica(t *testing.T) {
	r := testRouter(SLOAware)
	m := fakeModel(2)
	// Replica 0 observed fast completions, replica 1 slow ones.
	for i := 0; i < 20; i++ {
		m.replicas[0].lat.Add(5000)
		m.replicas[1].lat.Add(50000)
	}
	for i := 0; i < 3; i++ {
		h := r.pick(m, 0, -1)
		if h.id != 0 {
			t.Fatalf("picked slow replica %d", h.id)
		}
		h.outstanding++
	}
	// Once the fast replica's backlog predicts worse latency than the idle
	// slow one, traffic spills over: 5000*(1+o/8) > 50000 at o >= 72, which
	// is above the cap, so here it saturates at the cap instead.
	m.replicas[0].outstanding = 4
	if h := r.pick(m, 0, -1); h == nil || h.id != 1 {
		t.Fatal("did not spill to the slow replica at cap")
	}
}

func TestRouteQueuesThenRejects(t *testing.T) {
	r := testRouter(RoundRobin) // queueCap = 8
	m := fakeModel(0)           // no replicas at all
	for i := 0; i < 10; i++ {
		r.route(m, 0, 0, 0, 0, 0)
	}
	if m.arrivals != 10 {
		t.Fatalf("arrivals = %d, want 10", m.arrivals)
	}
	if len(m.queue) != 8 {
		t.Fatalf("queued = %d, want 8 (cap)", len(m.queue))
	}
	if m.rejected != 2 {
		t.Fatalf("rejected = %d, want 2", m.rejected)
	}
	if m.routed != 0 {
		t.Fatalf("routed = %d, want 0", m.routed)
	}
}

func TestDrainQueueShedsStale(t *testing.T) {
	r := testRouter(RoundRobin)
	m := fakeModel(0)
	m.sloUs = 1000
	m.queue = []queuedReq{{arrival: 0}, {arrival: 500}, {arrival: 4000}}
	// At t=5000 the first two waited past the 1000us SLO; the third is
	// fresh but still has no replica to land on.
	r.drainQueue(m, 5000)
	if m.rejected != 2 {
		t.Fatalf("rejected = %d, want 2", m.rejected)
	}
	if len(m.queue) != 1 || m.queue[0].arrival != 4000 {
		t.Fatalf("queue = %+v, want the fresh request kept", m.queue)
	}
}

func TestSLOAwareAvoidsDeadSilentReplica(t *testing.T) {
	// Regression: a replica with zero healthy history — routed to, never
	// completing — must not keep winning on a flat neutral prior while its
	// queue grows. The no-history prior escalates with backlog, so after a
	// bounded number of probes all traffic shifts to the proven-but-slow
	// replica that is at least alive.
	r := newRouter(SLOAware, 1, 32, 8, nil, false)
	m := fakeModel(2)
	// Replica 1 is alive but slow: its observed P95 (25000us) is worse than
	// the neutral prior (sloUs/2 = 10000us), the regime where the old flat
	// prior made the silent replica win forever.
	for i := 0; i < 20; i++ {
		m.replicas[1].lat.Add(25000)
	}
	silentPicks := 0
	for i := 0; i < 40; i++ {
		h := r.pick(m, 0, -1)
		if h == nil {
			t.Fatal("no replica picked")
		}
		h.outstanding++
		if h.id == 0 {
			silentPicks++ // never completes: outstanding only grows
		} else {
			// The live replica completes what it gets.
			h.outstanding--
			h.lat.Add(25000)
		}
	}
	if silentPicks == 0 {
		t.Fatal("silent replica never probed: prior too pessimistic")
	}
	if silentPicks > 4 {
		t.Fatalf("dead-silent replica won %d of 40 picks; prior must escalate with backlog", silentPicks)
	}
	// And with hindsight: the next pick goes to the live replica.
	if h := r.pick(m, 0, -1); h.id != 0 && h.id != 1 {
		t.Fatal("no pick")
	} else if h.id == 0 {
		t.Fatal("still routing to the dead-silent replica")
	}
}

func TestFeasibleUsNoBacklogDoubleCount(t *testing.T) {
	// The admission oracle must not double-count steady-state queueing: the
	// observed P95 already includes it, so backlog up to one in-flight batch
	// leaves the estimate at P95, and only excess queue escalates it.
	m := fakeModel(1)
	h := m.replicas[0]
	for i := 0; i < 20; i++ {
		h.lat.Add(8000)
	}
	h.outstanding = m.batch // one batch in flight: no excess
	if got := feasibleUs(m, h); got != 8000 {
		t.Fatalf("feasibleUs at one batch = %v, want the raw p95 8000", got)
	}
	h.outstanding = 3 * m.batch // two batches of excess queue
	if got := feasibleUs(m, h); got != 8000*3 {
		t.Fatalf("feasibleUs at 3x batch = %v, want 24000", got)
	}
	// Relative routing score still escalates from the first request.
	h.outstanding = m.batch
	if got := predictUs(m, h); got <= 8000 {
		t.Fatalf("predictUs = %v, must penalise backlog for ranking", got)
	}
}

// TestRoutingDecisionZeroAlloc guards the per-request routing path: a
// steady-state decision allocates nothing under any policy (p2c reuses its
// scratch candidate slice).
func TestRoutingDecisionZeroAlloc(t *testing.T) {
	for _, pol := range Policies() {
		r, m := routingBench(pol)
		routingStep(r, m) // grow p2c's scratch slice
		if allocs := testing.AllocsPerRun(1000, func() { routingStep(r, m) }); allocs != 0 {
			t.Errorf("%v: routing decision allocates %.1f/op, want 0", pol, allocs)
		}
	}
}
