package cluster

import (
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
)

// gwStatsEqual compares the deterministic scalar counters of two gateway
// snapshots.
func gwStatsEqual(a, b *gateway.Stats) bool {
	return a.Admitted == b.Admitted && a.Shed() == b.Shed() &&
		a.ShedDeadline == b.ShedDeadline && a.ShedQueue == b.ShedQueue &&
		a.Primaries == b.Primaries && a.Hedges == b.Hedges &&
		a.HedgeWins == b.HedgeWins && a.Retries == b.Retries &&
		a.Cancelled == b.Cancelled && a.BudgetDenied == b.BudgetDenied &&
		a.BreakerOpens == b.BreakerOpens && a.BreakerCloses == b.BreakerCloses
}

// TestGatewayTransparentWhenAllDisabled: a gateway with every mechanism
// switched off and no rate limits is a pure pass-through — the fleet must
// be byte-identical to running with no gateway at all. This is the
// regression fence that keeps every PR5 result reproducible.
func TestGatewayTransparentWhenAllDisabled(t *testing.T) {
	off := baseConfig(t)
	off.RecordRouting = true
	offRes := Run(off)

	on := baseConfig(t)
	on.RecordRouting = true
	on.Gateway = &gateway.Config{
		DisableHedging:  true,
		DisableRetry:    true,
		DisableDeadline: true,
		DisableBreakers: true,
	}
	onRes := Run(on)

	if offRes.RoutingLog != onRes.RoutingLog {
		t.Fatal("routing log differs: the disabled gateway is not transparent")
	}
	if offRes.Arrivals != onRes.Arrivals || offRes.Routed != onRes.Routed ||
		offRes.Completed != onRes.Completed || offRes.SLOViolations != onRes.SLOViolations ||
		offRes.Rejected != onRes.Rejected {
		t.Fatalf("results differ:\noff: arr %d routed %d compl %d viol %d rej %d\non:  arr %d routed %d compl %d viol %d rej %d",
			offRes.Arrivals, offRes.Routed, offRes.Completed, offRes.SLOViolations, offRes.Rejected,
			onRes.Arrivals, onRes.Routed, onRes.Completed, onRes.SLOViolations, onRes.Rejected)
	}
	if onRes.Gateway.Hedges != 0 || onRes.Gateway.Retries != 0 || onRes.Gateway.Shed() != 0 {
		t.Fatalf("disabled gateway still acted: %s", onRes.Gateway)
	}
}

// TestHedgingDeterministicZeroFaults: with zero faults, the fleet's results
// ordering is byte-identical run-to-run both with hedging on and with it
// off — hedge timers, loser cancellation, and completion replay are all
// functions of the seed and the virtual clock, never of host scheduling.
func TestHedgingDeterministicZeroFaults(t *testing.T) {
	run := func(disableHedging bool) *Result {
		cfg := chaosConfig(t)
		cfg.Workloads[0].Gen = workload.Constant{RatePerSec: 1600}
		cfg.RecordRouting = true
		cfg.Gateway = &gateway.Config{DisableHedging: disableHedging}
		return Run(cfg)
	}
	for _, disable := range []bool{false, true} {
		a, b := run(disable), run(disable)
		if a.RoutingLog != b.RoutingLog {
			t.Fatalf("hedging disabled=%v: routing log differs across identical runs", disable)
		}
		if !gwStatsEqual(a.Gateway, b.Gateway) {
			t.Fatalf("hedging disabled=%v: gateway stats differ:\n%s\n%s", disable, a.Gateway, b.Gateway)
		}
		if a.Completed != b.Completed || a.SLOViolations != b.SLOViolations {
			t.Fatalf("hedging disabled=%v: results differ", disable)
		}
	}
	// Hedging with no faults is pure insurance: it must not lose requests.
	on, offRun := run(false), run(true)
	if on.Arrivals != offRun.Arrivals {
		t.Fatal("offered load differs between hedging on and off")
	}
	if on.Completed == 0 || offRun.Completed == 0 {
		t.Fatal("degenerate run")
	}
	if on.Failed != 0 || offRun.Failed != 0 {
		t.Fatalf("requests failed with zero faults: on %d, off %d", on.Failed, offRun.Failed)
	}
}

// TestGatewayParallelLockstepIdentical: the gateway's verdicts live on the
// fleet control goroutine, so advancing each node on its own clock under
// the event-horizon scheduler, rather than every node every tick in
// lockstep, must not change a single decision. Nodes die and replicas drain
// mid-flight while hedge submissions and cancellations land, so hedged
// copies racing Drain/Kill are on the path.
func TestGatewayParallelLockstepIdentical(t *testing.T) {
	mk := func() Config {
		cfg := chaosConfig(t)
		applyChaos(t, &cfg, "rack-loss")
		applyChaos(t, &cfg, "gray-node")
		cfg.Gateway = &gateway.Config{}
		return cfg
	}
	lockstep, horizon := runFleet(mk(), true), runFleet(mk(), false)
	if lockstep.RoutingLog != horizon.RoutingLog {
		t.Fatal("event-horizon fleet diverged from lockstep with gateway enabled")
	}
	if !gwStatsEqual(lockstep.Gateway, horizon.Gateway) {
		t.Fatalf("gateway stats diverge under event-horizon advancement:\n%s\n%s",
			lockstep.Gateway, horizon.Gateway)
	}
	if lockstep.Completed != horizon.Completed || lockstep.Failed != horizon.Failed {
		t.Fatalf("results diverge: lockstep compl %d fail %d, event-horizon compl %d fail %d",
			lockstep.Completed, lockstep.Failed, horizon.Completed, horizon.Failed)
	}
	if horizon.Gateway.Retries == 0 && horizon.Gateway.Hedges == 0 {
		t.Fatal("scenario exercised neither hedges nor retries")
	}
}
