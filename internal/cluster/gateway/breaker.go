package gateway

import (
	"krisp/internal/sim"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed passes traffic and watches the windowed failure rate.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses traffic until the cooldown expires.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe requests; a probe
	// success closes the breaker, a probe failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes the per-replica circuit breakers.
type BreakerConfig struct {
	// Window is the outcome ring size the failure rate is computed over.
	// Default 32, capped at 256.
	Window int
	// MinVolume is the minimum number of windowed outcomes before the
	// breaker may trip — a single early failure must not open it. Default 8.
	MinVolume int
	// FailureRate is the windowed error+timeout fraction that trips the
	// breaker. Default 0.5.
	FailureRate float64
	// Cooldown is how long an open breaker waits before probing (virtual
	// time). Default 10ms.
	Cooldown sim.Duration
	// Probes bounds concurrent half-open probe requests. Default 2.
	Probes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.Window > 256 {
		c.Window = 256
	}
	if c.MinVolume <= 0 {
		c.MinVolume = 8
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * sim.Millisecond
	}
	if c.Probes <= 0 {
		c.Probes = 2
	}
	return c
}

// Breaker is one replica's circuit breaker: closed / open / half-open on a
// windowed error+timeout rate, driven entirely by virtual time. It is
// single-goroutine, like everything else in the fleet control plane.
//
// Outcomes are recorded by the gateway: an in-SLO completion is a success;
// an SLO-violating completion, a hedge fired against the replica, or the
// replica's node dying count as failures. The window resets on every state
// transition so stale history cannot mask a relapse (or keep punishing a
// recovered replica).
type Breaker struct {
	cfg      BreakerConfig
	state    BreakerState
	outcomes []bool // ring, true = failure
	n, next  int
	failures int

	openedUntil sim.Time
	probesOut   int

	// gw and replica, set by Gateway.AddReplica, name the gateway that
	// accounts every state change (stats, telemetry, trace) and the
	// replica the breaker guards; a standalone breaker has no gateway.
	gw      *Gateway
	replica int
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, outcomes: make([]bool, cfg.Window)}
}

// State returns the breaker's current position without advancing it.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	return b.state
}

// Allow reports whether a request may be routed to the replica at now. It
// performs the open→half-open transition when the cooldown has expired.
// Nil-safe: a nil breaker always allows (breakers disabled).
func (b *Breaker) Allow(now sim.Time) bool {
	if b == nil {
		return true
	}
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < b.openedUntil {
			return false
		}
		b.transition(BreakerHalfOpen)
		return b.probesOut < b.cfg.Probes
	case BreakerHalfOpen:
		return b.probesOut < b.cfg.Probes
	default:
		return true
	}
}

// OnSend records that a request was routed to the replica (a probe, when
// half-open). Nil-safe.
func (b *Breaker) OnSend() {
	if b == nil {
		return
	}
	if b.state == BreakerHalfOpen {
		b.probesOut++
	}
}

// Record feeds one outcome (ok = completed within SLO) and applies the
// state machine. Nil-safe.
func (b *Breaker) Record(now sim.Time, ok bool) {
	if b == nil {
		return
	}
	switch b.state {
	case BreakerClosed:
		b.push(!ok)
		if b.n >= b.cfg.MinVolume &&
			float64(b.failures) >= b.cfg.FailureRate*float64(b.n) {
			b.openedUntil = now + b.cfg.Cooldown
			b.transition(BreakerOpen)
		}
	case BreakerHalfOpen:
		if b.probesOut > 0 {
			b.probesOut--
		}
		if ok {
			b.transition(BreakerClosed)
		} else {
			b.openedUntil = now + b.cfg.Cooldown
			b.transition(BreakerOpen)
		}
	case BreakerOpen:
		// Stale completions from before the trip; the cooldown is already
		// running, nothing to learn.
	}
}

// Trip forces the breaker open (the replica's node died). Nil-safe.
func (b *Breaker) Trip(now sim.Time) {
	if b == nil || b.state == BreakerOpen {
		return
	}
	b.openedUntil = now + b.cfg.Cooldown
	b.transition(BreakerOpen)
}

func (b *Breaker) push(failure bool) {
	if b.n == len(b.outcomes) {
		if b.outcomes[b.next] {
			b.failures--
		}
	} else {
		b.n++
	}
	b.outcomes[b.next] = failure
	if failure {
		b.failures++
	}
	b.next = (b.next + 1) % len(b.outcomes)
}

func (b *Breaker) transition(to BreakerState) {
	b.state = to
	// Every transition clears the window and probe count: each state
	// reasons only about evidence gathered while in it.
	b.n, b.next, b.failures, b.probesOut = 0, 0, 0, 0
	if b.gw != nil {
		b.gw.breakerTransition(b.replica, to)
	}
}

// reset returns a parked breaker to the closed state NewBreaker builds,
// keeping its config and window storage.
func (b *Breaker) reset() {
	clear(b.outcomes)
	*b = Breaker{cfg: b.cfg, outcomes: b.outcomes}
}
