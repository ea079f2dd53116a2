package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// FuzzPick checks every policy's pick, and bestPredictUs, against
// brute-force references written from the policy definitions. Each input
// seeds one random replica set mixing dead, draining, not-yet-ready,
// decode-role, excluded and at-cap handles, with circuit breakers closed,
// open, expired-open or half-open (or no breakers at all, the no-gateway
// fleet). Between decisions at the same virtual time the harness books the
// pick's occupancy and mutates handles and breakers — the pattern a cached
// candidate set would have to track. After every decision each real
// breaker's state must equal its shadow's: Allow moves an expired open
// breaker to half-open, so calling it on a replica another test already
// ruled out would show.
func FuzzPick(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, p := range Policies() {
			newPickFixture(p, seed).run(t)
		}
	})
}

const (
	pickCooldown = 10 * sim.Millisecond
	pickProbes   = 2
)

// shadowBreaker mirrors one gateway.Breaker from the breaker's definition:
// open refuses until its cooldown ends, then turns half-open on the next
// Allow; half-open admits while fewer than pickProbes probes are out.
type shadowBreaker struct {
	state  gateway.BreakerState
	until  sim.Time
	probes int
}

func (s *shadowBreaker) allow(now sim.Time) bool {
	if s == nil {
		return true
	}
	switch s.state {
	case gateway.BreakerOpen:
		if now < s.until {
			return false
		}
		s.state, s.probes = gateway.BreakerHalfOpen, 0
		return s.probes < pickProbes
	case gateway.BreakerHalfOpen:
		return s.probes < pickProbes
	}
	return true
}

func (s *shadowBreaker) trip(now sim.Time) {
	if s.state != gateway.BreakerOpen {
		s.state, s.until, s.probes = gateway.BreakerOpen, now+pickCooldown, 0
	}
}

func (s *shadowBreaker) onSend() {
	if s.state == gateway.BreakerHalfOpen {
		s.probes++
	}
}

type pickFixture struct {
	policy Policy
	rng    *rand.Rand // drives the scenario, not the router
	now    sim.Time
	cap    int
	r      *router
	m      *modelState
	shadow map[*replicaHandle]*shadowBreaker

	// The reference's own policy state: the round-robin cursor and a p2c
	// sampler seeded like the router's.
	rrNext int
	p2c    *rand.Rand
}

func newPickFixture(p Policy, seed int64) *pickFixture {
	rng := rand.New(rand.NewSource(seed))
	fx := &pickFixture{
		policy: p,
		rng:    rng,
		now:    sim.Time(50000 + rng.Intn(1000)),
		cap:    1 + rng.Intn(4),
		m:      &modelState{name: "m", batch: 1 + rng.Intn(8), sloUs: 20000},
		shadow: map[*replicaHandle]*shadowBreaker{},
	}
	fx.r = newRouter(p, seed, fx.cap, 8, nil, false)
	fx.p2c = newRouter(p, seed, fx.cap, 8, nil, false).rng
	gated := rng.Intn(4) != 0 // otherwise no breakers: the no-gateway fleet
	id := 0
	for i, n := 0, rng.Intn(10); i < n; i++ {
		id += 1 + rng.Intn(3) // ids ascend in replica order, with reap gaps
		h := &replicaHandle{id: id, outstanding: rng.Intn(fx.cap + 1)}
		fx.mutate(h, rng.Intn(6)) // dead, draining, not ready, or a role
		for k, samples := 0, rng.Intn(6); k < samples; k++ {
			h.lat.Add(float64(1000 * (1 + rng.Intn(20))))
		}
		if gated {
			h.breaker = gateway.NewBreaker(gateway.BreakerConfig{Cooldown: pickCooldown, Probes: pickProbes})
			fx.shadow[h] = &shadowBreaker{}
			fx.setBreaker(h)
		}
		fx.m.replicas = append(fx.m.replicas, h)
	}
	return fx
}

// setBreaker drives h's breaker (and its shadow) into a random state:
// closed, open, expired-open, or half-open with 0..pickProbes probes out.
func (fx *pickFixture) setBreaker(h *replicaHandle) {
	b, s := h.breaker, fx.shadow[h]
	switch fx.rng.Intn(4) {
	case 0: // leave as is (closed on creation)
	case 1: // open: tripped within the last cooldown
		at := fx.now - sim.Time(fx.rng.Intn(int(pickCooldown)))
		b.Trip(at)
		s.trip(at)
	case 2: // expired-open: tripped a cooldown or more ago, never re-asked
		at := fx.now - pickCooldown - sim.Time(fx.rng.Intn(1000))
		b.Trip(at)
		s.trip(at)
	case 3: // half-open with some probes out
		at := fx.now - pickCooldown - 1
		b.Trip(at)
		s.trip(at)
		b.Allow(fx.now)
		s.allow(fx.now)
		for k := fx.rng.Intn(pickProbes + 1); k > 0; k-- {
			b.OnSend()
			s.onSend()
		}
	}
}

// mutate applies one control-plane change to h.
func (fx *pickFixture) mutate(h *replicaHandle, op int) {
	switch op {
	case 0:
		h.dead = !h.dead
	case 1:
		h.draining = !h.draining
	case 2:
		if h.readyAt > fx.now {
			h.readyAt = 0
		} else {
			h.readyAt = fx.now + 1
		}
	case 3:
		h.role = server.LLMRoleDecode
	case 4:
		h.role = server.LLMRolePrefill
	case 5:
		h.role = server.LLMRoleMixed
	case 6:
		h.outstanding = fx.rng.Intn(fx.cap + 1)
	case 7:
		h.lat.Add(float64(1000 * (1 + fx.rng.Intn(20))))
	case 8:
		if h.breaker != nil {
			fx.setBreaker(h)
		}
	}
}

// eligible is the routing predicate from its definition: not excluded, not
// decode-role, not dead or draining, ready, and admitted by its breaker —
// stepping the shadow breaker only once every other test has passed.
func (fx *pickFixture) eligible(h *replicaHandle, exclude int) bool {
	if h.id == exclude || h.role == server.LLMRoleDecode || h.dead || h.draining || h.readyAt > fx.now {
		return false
	}
	return fx.shadow[h].allow(fx.now)
}

// refPick is the reference decision for fx.policy.
func (fx *pickFixture) refPick(exclude int) *replicaHandle {
	reps := fx.m.replicas
	switch fx.policy {
	case RoundRobin:
		// The first eligible replica under cap at or after the cursor,
		// wrapping; the cursor moves just past it.
		for i := range reps {
			j := (fx.rrNext + i) % len(reps)
			if fx.eligible(reps[j], exclude) && reps[j].outstanding < fx.cap {
				fx.rrNext = (j + 1) % len(reps)
				return reps[j]
			}
		}
		return nil
	case LeastOutstanding, SLOAware:
		// The eligible replica under cap with the lowest score: outstanding
		// count, or predicted latency; ties go to the lowest id.
		score := func(h *replicaHandle) float64 { return float64(h.outstanding) }
		if fx.policy == SLOAware {
			score = func(h *replicaHandle) float64 { return predictUs(fx.m, h) }
		}
		var best *replicaHandle
		for _, h := range reps {
			if !fx.eligible(h, exclude) || h.outstanding >= fx.cap {
				continue
			}
			if best == nil || score(h) < score(best) || (score(h) == score(best) && h.id < best.id) {
				best = h
			}
		}
		return best
	case PowerOfTwo:
		// Two uniform samples, with replacement, from the eligible replicas
		// in replica order; the less loaded one if under cap, else the
		// other if under cap, else none.
		var ready []*replicaHandle
		for _, h := range reps {
			if fx.eligible(h, exclude) {
				ready = append(ready, h)
			}
		}
		if len(ready) == 0 {
			return nil
		}
		a := ready[fx.p2c.Intn(len(ready))]
		b := ready[fx.p2c.Intn(len(ready))]
		if b.outstanding < a.outstanding {
			a, b = b, a
		}
		switch {
		case a.outstanding < fx.cap:
			return a
		case b.outstanding < fx.cap:
			return b
		}
		return nil
	}
	panic("unknown policy")
}

// refBestPredictUs is the deadline oracle from its definition: the lowest
// feasibleUs over eligible replicas, at cap or not; +Inf when none.
func (fx *pickFixture) refBestPredictUs() float64 {
	best := math.Inf(1)
	for _, h := range fx.m.replicas {
		if fx.eligible(h, -1) {
			best = math.Min(best, feasibleUs(fx.m, h))
		}
	}
	return best
}

func (fx *pickFixture) run(t *testing.T) {
	t.Helper()
	reps := fx.m.replicas
	for round := 0; round < 12; round++ {
		if fx.rng.Intn(4) == 0 {
			want := fx.refBestPredictUs()
			if got := fx.r.bestPredictUs(fx.m, fx.now); got != want {
				t.Fatalf("%v round %d: bestPredictUs = %v, want %v", fx.policy, round, got, want)
			}
		} else {
			exclude := -1
			if len(reps) > 0 && fx.rng.Intn(3) == 0 {
				exclude = reps[fx.rng.Intn(len(reps))].id
			}
			want := fx.refPick(exclude)
			got := fx.r.pick(fx.m, fx.now, exclude)
			if got != want {
				t.Fatalf("%v round %d (exclude %d): pick = %s, want %s", fx.policy, round, exclude, handleName(got), handleName(want))
			}
			if got != nil {
				got.outstanding++ // the send's occupancy booking
				if got.breaker != nil && fx.rng.Intn(2) == 0 {
					got.breaker.OnSend() // the gateway books a probe
					fx.shadow[got].onSend()
				}
			}
		}
		for _, h := range reps {
			if want := fx.shadow[h]; want != nil && h.breaker.State() != want.state {
				t.Fatalf("%v round %d: replica %d breaker %v, want %v", fx.policy, round, h.id, h.breaker.State(), want.state)
			}
		}
		for k := fx.rng.Intn(3); k > 0 && len(reps) > 0; k-- {
			fx.mutate(reps[fx.rng.Intn(len(reps))], fx.rng.Intn(9))
		}
	}
}

func handleName(h *replicaHandle) string {
	if h == nil {
		return "nil"
	}
	return fmt.Sprintf("replica %d", h.id)
}
