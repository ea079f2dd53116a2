package cluster

import (
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// chaosConfig is the shared fleet shape for the chaos scenarios: one model
// held slightly above the capacity that survives each scenario, so the
// resilience mechanisms — not spare hardware — decide the outcome.
func chaosConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Nodes:       3,
		GPUsPerNode: 2,
		Workloads: []Workload{
			{
				Model: pick(t, "squeezenet"),
				Batch: 8,
				Gen:   workload.Constant{RatePerSec: 2600},
			},
		},
		Tick:     2 * sim.Millisecond,
		Epoch:    50 * sim.Millisecond,
		Duration: 400 * sim.Millisecond,
		Seed:     7,
		Costs:    compressedCosts(),
		Policy:   SLOAware,
	}
}

func applyChaos(t *testing.T, cfg *Config, name string) {
	t.Helper()
	s, err := ChaosByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(cfg)
}

func goodput(res *Result) int { return res.Completed - res.SLOViolations }

// TestChaosGrayNodeGatewayDoublesGoodput is the PR's acceptance scenario:
// under the gray-node chaos scenario (two of three nodes alive but slow),
// the gateway fleet must keep at least 2x the goodput of the bare-router
// baseline at equal offered load, and its retry+hedge traffic must stay
// inside the configured budget — counter-checked through the telemetry
// registry, not just the in-memory stats.
func TestChaosGrayNodeGatewayDoublesGoodput(t *testing.T) {
	base := chaosConfig(t)
	applyChaos(t, &base, "gray-node")
	baseline := Run(base)

	hub := telemetry.NewHub(false)
	gw := chaosConfig(t)
	applyChaos(t, &gw, "gray-node")
	gw.Gateway = &gateway.Config{}
	gw.Telemetry = hub
	gwRes := Run(gw)

	if baseline.Arrivals != gwRes.Arrivals {
		t.Fatalf("offered load differs: baseline %d vs gateway %d arrivals",
			baseline.Arrivals, gwRes.Arrivals)
	}
	bg, gg := goodput(baseline), goodput(gwRes)
	t.Logf("baseline: %d arrivals, %d completed, %d violations -> goodput %d",
		baseline.Arrivals, baseline.Completed, baseline.SLOViolations, bg)
	t.Logf("gateway:  %d arrivals, %d completed, %d violations -> goodput %d",
		gwRes.Arrivals, gwRes.Completed, gwRes.SLOViolations, gg)
	t.Logf("gateway stats: %s", gwRes.Gateway.String())
	if gg < 2*bg {
		t.Fatalf("gateway goodput %d < 2x baseline %d", gg, bg)
	}

	// Budget invariant, from the decision record...
	if err := gwRes.Gateway.CheckBudget(); err != nil {
		t.Fatal(err)
	}
	// ...and independently from the telemetry counters: secondary sends
	// never exceed ratio x primaries + burst. Primaries are the fleet's
	// routed requests (secondary copies do not count as routed).
	reg := hub.Registry()
	hedges := reg.Counter("krisp_gateway_hedges_total", "").Value()
	retries := reg.Counter("krisp_gateway_retries_total", "").Value()
	primaries := reg.Counter("krisp_fleet_routed_total", "").Value()
	limit := gwRes.Gateway.BudgetRatio*float64(primaries) + gwRes.Gateway.BudgetBurst
	if got := float64(hedges + retries); got > limit {
		t.Fatalf("telemetry: %d hedges + %d retries > budget limit %.1f", hedges, retries, limit)
	}
	if hedges != gwRes.Gateway.Hedges || retries != gwRes.Gateway.Retries {
		t.Fatalf("telemetry counters (%d, %d) disagree with stats (%d, %d)",
			hedges, retries, gwRes.Gateway.Hedges, gwRes.Gateway.Retries)
	}
}

// TestChaosDeterminism: the same chaos scenario with the same seed replays
// byte-identically — routing log and every gateway counter.
func TestChaosDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := chaosConfig(t)
		applyChaos(t, &cfg, "gray-node")
		cfg.Gateway = &gateway.Config{}
		cfg.RecordRouting = true
		return Run(cfg)
	}
	a, b := run(), run()
	if a.RoutingLog != b.RoutingLog {
		t.Fatal("routing log differs across identical chaos runs")
	}
	ga, gb := a.Gateway, b.Gateway
	if ga.Admitted != gb.Admitted || ga.Shed() != gb.Shed() ||
		ga.Hedges != gb.Hedges || ga.HedgeWins != gb.HedgeWins ||
		ga.Retries != gb.Retries || ga.Cancelled != gb.Cancelled ||
		ga.BreakerOpens != gb.BreakerOpens {
		t.Fatalf("gateway stats differ:\n%s\n%s", ga, gb)
	}
}

// TestChaosFlappingGPUBreakers: a repeatedly degrading GPU must trip its
// replicas' breakers during episodes and close them again after — the
// breaker is a filter, not a tombstone.
func TestChaosFlappingGPUBreakers(t *testing.T) {
	cfg := chaosConfig(t)
	applyChaos(t, &cfg, "flapping-gpu")
	cfg.Gateway = &gateway.Config{}
	res := Run(cfg)

	t.Logf("gateway stats: %s", res.Gateway.String())
	if res.Gateway.BreakerOpens == 0 {
		t.Fatal("flapping GPU never tripped a breaker")
	}
	if res.Gateway.BreakerCloses == 0 {
		t.Fatal("no breaker ever recovered across the flap episodes")
	}
	if err := res.Gateway.CheckBudget(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosRackLoss: a correlated crash of half the fleet. Retries rescue
// in-flight requests within the budget; the fleet keeps serving on the
// surviving nodes.
func TestChaosRackLoss(t *testing.T) {
	cfg := chaosConfig(t)
	applyChaos(t, &cfg, "rack-loss")
	cfg.Gateway = &gateway.Config{}
	res := Run(cfg)

	t.Logf("failed %d, gateway stats: %s", res.Failed, res.Gateway.String())
	if res.NodeFaults == 0 {
		t.Fatal("rack-loss applied no node faults")
	}
	if res.Gateway.Retries == 0 {
		t.Fatal("no request was retried off the dead rack")
	}
	if res.Completed == 0 {
		t.Fatal("fleet stopped serving after the rack loss")
	}
	if err := res.Gateway.CheckBudget(); err != nil {
		t.Fatal(err)
	}

	// Baseline comparison: retries must strictly reduce losses.
	baseCfg := chaosConfig(t)
	applyChaos(t, &baseCfg, "rack-loss")
	baseline := Run(baseCfg)
	if res.Failed >= baseline.Failed {
		t.Fatalf("gateway failed %d >= baseline %d: retries rescued nothing",
			res.Failed, baseline.Failed)
	}
}

// TestChaosOverloadBurstShedsByClass: under tenant bursts against a finite
// global rate, the low-priority hot tenant is shed hard while the premium
// tenant keeps most of its admissions (weighted buckets + class reserves).
func TestChaosOverloadBurstShedsByClass(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Gateway = &gateway.Config{}
	applyChaos(t, &cfg, "overload-burst")
	res := Run(cfg)

	gs := res.Gateway
	t.Logf("gateway stats: %s", gs.String())
	t.Logf("shed by class: %v, tenants: %+v", gs.ShedByClass, gs.Tenants)
	if len(gs.ShedByClass) != 2 {
		t.Fatalf("want 2 priority classes, got %d", len(gs.ShedByClass))
	}
	if gs.ShedTenant+gs.ShedOverload == 0 {
		t.Fatal("overload burst never shed on rate")
	}
	// The hot low-priority tenant must bear more shedding than the premium
	// tenant, absolutely and proportionally.
	prem, hot := gs.Tenants[0], gs.Tenants[1]
	if hot.Shed <= prem.Shed {
		t.Fatalf("hot tenant shed %d <= premium %d", hot.Shed, prem.Shed)
	}
	premRate := float64(prem.Shed) / float64(prem.Admitted+prem.Shed)
	hotRate := float64(hot.Shed) / float64(hot.Admitted+hot.Shed)
	if hotRate <= premRate {
		t.Fatalf("hot tenant shed rate %.3f <= premium %.3f", hotRate, premRate)
	}
	if err := gs.CheckBudget(); err != nil {
		t.Fatal(err)
	}
}
