package server

import (
	"krisp/internal/core"
	"krisp/internal/faults"
	"krisp/internal/metrics"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// chaosHarness is the server-side half of the hardened serving path,
// armed only when Config.Faults holds a non-empty plan: per-batch watchdog
// timeouts in virtual time, and an SLO guard that watches the windowed p99
// of batch latencies and walks every runtime's degradation ladder — wider
// masks when the tail blows past the threshold, re-tightened one rung per
// window once a cool-down expires.
type chaosHarness struct {
	eng      *sim.Engine
	stats    *faults.Stats
	runtimes []*core.Runtime

	batchTimeout sim.Duration

	window        sim.Duration
	p99Threshold  float64
	cooldown      sim.Duration
	cooldownUntil sim.Time
	recent        metrics.Sample
	stopAt        sim.Time

	// sloViolations mirrors SLOWidenings into the metrics registry (nil
	// when telemetry is off — the handle is nil-safe).
	sloViolations *telemetry.Counter
}

// startGuard begins the periodic SLO-guard ticks. Ticks stop rescheduling
// past stopAt so a bounded run leaves no self-perpetuating events behind.
func (c *chaosHarness) startGuard() {
	c.eng.After(c.window, func() { c.tick() })
}

func (c *chaosHarness) tick() {
	if c.recent.Len() > 0 {
		now := c.eng.Now()
		if p99 := c.recent.P99(); p99 > c.p99Threshold {
			c.stats.SLOWidenings++
			c.sloViolations.Inc()
			for _, rt := range c.runtimes {
				rt.Widen()
			}
			c.cooldownUntil = now + c.cooldown
		} else if now >= c.cooldownUntil {
			for _, rt := range c.runtimes {
				rt.Tighten()
			}
		}
		c.recent = metrics.Sample{}
	}
	if c.eng.Now() < c.stopAt {
		c.eng.After(c.window, func() { c.tick() })
	}
}

// observeBatch feeds one completed batch latency to the SLO guard.
func (c *chaosHarness) observeBatch(latency float64) {
	c.recent.Add(latency)
}

// watchdog guards one in-flight batch: if the batch outlives the timeout,
// the trip resets a stalled packet processor (the driver-level queue
// reset), widens the runtime's masks, and re-arms in case the batch is
// still wedged.
type watchdog struct {
	c  *chaosHarness
	rt *core.Runtime
	ev *sim.Event
}

// armWatchdog starts a watchdog for a batch beginning now on rt.
func (c *chaosHarness) armWatchdog(rt *core.Runtime) *watchdog {
	wd := &watchdog{c: c, rt: rt}
	wd.ev = c.eng.After(c.batchTimeout, wd.trip)
	return wd
}

func (wd *watchdog) trip() {
	c := wd.c
	c.stats.WatchdogTrips++
	if wd.rt.Queue().ResetStall() {
		c.stats.WatchdogResets++
	}
	wd.rt.Widen()
	wd.ev = c.eng.After(c.batchTimeout, wd.trip)
}

// stop cancels the watchdog once its batch completes.
func (wd *watchdog) stop() {
	wd.c.eng.Cancel(wd.ev)
}
