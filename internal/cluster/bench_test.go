package cluster

import (
	"fmt"
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
	"krisp/internal/llm"
	"krisp/internal/models"
	"krisp/internal/reconfig"
	"krisp/internal/sim"
)

func benchConfig(b *testing.B) Config {
	b.Helper()
	m, ok := models.ByName("squeezenet")
	if !ok {
		b.Fatal("squeezenet missing")
	}
	m2, ok := models.ByName("mobilenet")
	if !ok {
		b.Fatal("mobilenet missing")
	}
	return Config{
		Nodes:       3,
		GPUsPerNode: 2,
		Workloads: []Workload{
			{Model: m, Batch: 8,
				Gen: workload.Diurnal{Trough: 800, Peak: 5000, Period: 300 * sim.Millisecond}},
			{Model: m2, Batch: 8, Gen: workload.Constant{RatePerSec: 1200}},
		},
		Policy:   SLOAware,
		Tick:     2 * sim.Millisecond,
		Epoch:    50 * sim.Millisecond,
		Duration: 300 * sim.Millisecond,
		Seed:     7,
		Costs: reconfig.Costs{
			PartitionSetup: 2 * sim.Millisecond,
			ProcessStart:   3 * sim.Millisecond,
			ModelLoad:      10 * sim.Millisecond,
			SwapDowntime:   55 * sim.Microsecond,
		},
	}
}

// BenchmarkFleetThroughput runs one full fleet experiment per iteration and
// reports routed requests per wall-second — the fleet-throughput number
// tracked in BENCH_PR5.json and the CI bench-smoke job.
func BenchmarkFleetThroughput(b *testing.B) {
	cfg := benchConfig(b)
	// Planner profiling dominates cold runs; warm one fleet first so the
	// loop measures simulation, not sweep construction (each New re-sweeps;
	// that cost is part of a fleet build and belongs in the number).
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg)
		total += res.Routed
	}
	b.StopTimer()
	if total == 0 {
		b.Fatal("fleet routed nothing")
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "requests/s")
}

// scalingConfig holds per-node offered load constant while the fleet
// grows, so the sweep measures scheduler scaling, not a shrinking
// utilization.
func scalingConfig(b *testing.B, nodes int) Config {
	b.Helper()
	m, ok := models.ByName("squeezenet")
	if !ok {
		b.Fatal("squeezenet missing")
	}
	return Config{
		Nodes:       nodes,
		GPUsPerNode: 2,
		Workloads: []Workload{
			{Model: m, Batch: 8,
				Gen: workload.Constant{RatePerSec: 400 * float64(nodes)}},
		},
		Policy:   SLOAware,
		Tick:     2 * sim.Millisecond,
		Epoch:    50 * sim.Millisecond,
		Duration: 300 * sim.Millisecond,
		Seed:     7,
		Costs: reconfig.Costs{
			PartitionSetup: 2 * sim.Millisecond,
			ProcessStart:   3 * sim.Millisecond,
			ModelLoad:      10 * sim.Millisecond,
			SwapDowntime:   55 * sim.Microsecond,
		},
	}
}

// BenchmarkFleetScaling is the fleet-size sweep: 4/16/64 nodes at
// constant per-node load on the event-horizon scheduler.
func BenchmarkFleetScaling(b *testing.B) {
	for _, nodes := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cfg := scalingConfig(b, nodes)
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += Run(cfg).Routed
			}
			b.StopTimer()
			if total == 0 {
				b.Fatal("fleet routed nothing")
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "requests/s")
		})
	}
}

// routingBench builds a standing eight-replica set with full latency
// windows for the isolated routing-decision benchmark and its alloc guard.
func routingBench(pol Policy) (*router, *modelState) {
	r := newRouter(pol, 1, 1<<30, 0, nil, false)
	m := &modelState{name: "m", batch: 8, sloUs: 20000}
	for i := 0; i < 8; i++ {
		h := &replicaHandle{id: i}
		for j := 0; j < 64; j++ {
			h.lat.Add(float64(5000 + i*100 + j))
		}
		m.replicas = append(m.replicas, h)
	}
	return r, m
}

// routingStep is one routing decision: pick plus the occupancy it books,
// reset before the counters can skew the policies' scores for good.
func routingStep(r *router, m *modelState) {
	h := r.pick(m, 0, -1)
	h.outstanding++
	if h.outstanding > 1<<20 {
		for _, rh := range m.replicas {
			rh.outstanding = 0
		}
	}
}

// BenchmarkFleetRoutingDecision isolates the router's per-request cost:
// pick + accounting on a standing replica set, no simulation behind it.
func BenchmarkFleetRoutingDecision(b *testing.B) {
	for _, pol := range Policies() {
		b.Run(pol.String(), func(b *testing.B) {
			r, m := routingBench(pol)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routingStep(r, m)
			}
		})
	}
}

// BenchmarkLLMFleet runs the disaggregated LLM fleet from the per-phase
// acceptance test at benchmark scale: 2 nodes x 2 GPUs, decode-heavy
// demand, prefill and decode tiers with KV handoffs between them. The
// shared mode sizes every replica at the prefill knee; per-phase gives
// decode its own (much smaller) right-size. tokens/s is generated tokens
// per wall-second — the serving-throughput number tracked in
// BENCH_PR10.json.
func BenchmarkLLMFleet(b *testing.B) {
	model := llm.Small()
	for _, mode := range []struct {
		name     string
		perPhase bool
	}{{"shared", false}, {"per-phase", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{
				Nodes:       2,
				GPUsPerNode: 2,
				Workloads: []Workload{{
					Gen: workload.Constant{RatePerSec: 2000},
					LLM: &LLMWorkload{
						Model: model,
						Lengths: workload.LengthDist{
							PromptMin: 128, PromptMax: 128,
							OutputMin: 64, OutputMax: 64,
						},
						Disaggregate: true,
						PerPhase:     mode.perPhase,
					},
				}},
				Tick:     2 * sim.Millisecond,
				Epoch:    50 * sim.Millisecond,
				Duration: 300 * sim.Millisecond,
				Seed:     42,
				Costs: reconfig.Costs{
					PartitionSetup: 2 * sim.Millisecond,
					ProcessStart:   3 * sim.Millisecond,
					ModelLoad:      10 * sim.Millisecond,
					SwapDowntime:   55 * sim.Microsecond,
				},
			}
			tokens, routed := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := Run(cfg)
				tokens += res.TokensOut
				routed += res.Routed
			}
			b.StopTimer()
			if routed == 0 {
				b.Fatal("fleet routed nothing")
			}
			b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tokens/s")
			b.ReportMetric(float64(routed)/b.Elapsed().Seconds(), "requests/s")
		})
	}
}

// BenchmarkFleetThroughputGateway is the gateway-on twin of
// BenchmarkFleetThroughput: the identical fleet and trace fronted by
// the resilience gateway with its default mechanisms (deadline admission,
// breakers, hedging, retry budget) enabled. The delta between the two is
// the whole-run cost of resilience — tracked in BENCH_PR6.json.
func BenchmarkFleetThroughputGateway(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Gateway = &gateway.Config{}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg)
		total += res.Routed
	}
	b.StopTimer()
	if total == 0 {
		b.Fatal("fleet routed nothing")
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "requests/s")
}
