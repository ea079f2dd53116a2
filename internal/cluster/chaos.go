package cluster

import (
	"fmt"

	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
	"krisp/internal/faults"
)

// ChaosScenario composes the node-scoped fault kinds into a named
// fleet-scale failure story. Scenarios mutate a fleet Config — faults,
// traffic shape, tenants — and scale their timings to the config's
// duration, so the same scenario runs on a 300ms test fleet or a
// multi-minute one. Everything a scenario injects is seed-driven virtual
// time: two runs with equal configs replay the identical failure.
type ChaosScenario struct {
	Name        string
	Description string
	apply       func(cfg *Config)
}

// Apply injects the scenario into the config. Call it after the config's
// fleet shape (nodes, workloads, duration) is final.
func (s *ChaosScenario) Apply(cfg *Config) { s.apply(cfg) }

// ChaosScenarios lists the built-in fleet chaos scenarios.
func ChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{
			Name: "gray-node",
			Description: "all nodes but one gray-fail (stretched CUs + kernel stragglers): " +
				"alive, accepting, slow — the scenario circuit breakers and deadline admission exist for",
			apply: func(cfg *Config) {
				shape := defaultShape(*cfg)
				at := shape.Duration / 10
				for n := 0; n < shape.Nodes-1; n++ {
					cfg.NodeFaults = append(cfg.NodeFaults, faults.NodeFault{
						At: at, Node: n, Kind: faults.NodeGray,
						Stretch: 5, StragglerProb: 0.3,
					})
				}
			},
		},
		{
			Name: "flapping-gpu",
			Description: "one GPU repeatedly degrades and recovers — breakers must open during " +
				"each episode and close again after it, never writing the replica off for good",
			apply: func(cfg *Config) {
				shape := defaultShape(*cfg)
				dur := shape.Duration
				node := 1 % shape.Nodes
				for at := dur / 6; at < dur; at += dur / 4 {
					cfg.NodeFaults = append(cfg.NodeFaults, faults.NodeFault{
						At: at, Node: node, Kind: faults.GPUDegrade, GPU: 0,
						Stretch: 6, Duration: dur / 8,
					})
				}
			},
		},
		{
			Name: "rack-loss",
			Description: "half the fleet crashes at once (correlated rack failure); one node " +
				"returns, the rest stay dark — retries must rescue what the budget allows",
			apply: func(cfg *Config) {
				shape := defaultShape(*cfg)
				dur, n := shape.Duration, shape.Nodes
				at := dur / 2
				for node := 0; node < n/2; node++ {
					nf := faults.NodeFault{At: at, Node: node, Kind: faults.NodeDown}
					if node == n/2-1 && node > 0 {
						nf.Duration = dur / 4 // the last rack member comes back
					}
					cfg.NodeFaults = append(cfg.NodeFaults, nf)
				}
			},
		},
		{
			Name: "overload-burst",
			Description: "periodic 3x traffic bursts from a hot low-priority tenant — weighted " +
				"fair buckets and class reserves must shed the burst, not the premium tenant",
			apply: func(cfg *Config) {
				dur := defaultShape(*cfg).Duration
				// Base (pre-burst) offered rate: the global admission cap is
				// sized against this, not the burst-inflated mean, so bursts
				// genuinely overrun it.
				baseRate := 0.0
				for i := range cfg.Workloads {
					baseRate += workload.MeanRate(cfg.Workloads[i].Gen, 0, dur)
					cfg.Workloads[i].Gen = workload.Burst{
						Base:   cfg.Workloads[i].Gen,
						Every:  dur / 3,
						Length: dur / 10,
						Factor: 3,
					}
				}
				if len(cfg.Tenants) == 0 {
					// Tenant 1 offers twice tenant 0's traffic at lower priority.
					cfg.Tenants = []workload.TenantShare{
						{ID: 0, Weight: 1},
						{ID: 1, Weight: 2},
					}
				}
				if cfg.Gateway != nil {
					if len(cfg.Gateway.Tenants) == 0 {
						cfg.Gateway.Tenants = []gateway.Tenant{
							{ID: 0, Weight: 1, Class: 0},
							{ID: 1, Weight: 1, Class: 1},
						}
					}
					if cfg.Gateway.GlobalRatePerSec == 0 {
						// Cap admission just under the steady rate with a small
						// burst allowance, so overload is a shedding decision,
						// not a queueing collapse.
						cfg.Gateway.GlobalRatePerSec = baseRate * 0.9
						if cfg.Gateway.GlobalBurst == 0 {
							cfg.Gateway.GlobalBurst = 32
						}
					}
				}
			},
		},
	}
}

// ChaosByName resolves a scenario by its name.
func ChaosByName(name string) (*ChaosScenario, error) {
	for _, s := range ChaosScenarios() {
		if s.Name == name {
			s := s
			return &s, nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown chaos scenario %q", name)
}
