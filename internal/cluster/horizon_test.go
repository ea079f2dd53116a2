package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/faults"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// runFleet runs cfg at the given worker count with routing recorded, on
// the lockstep oracle when lockstep is set and on the event-horizon
// scheduler otherwise.
func runFleet(cfg Config, lockstep bool, workers int) *Result {
	cfg.Parallel = workers
	cfg.RecordRouting = true
	f := New(cfg)
	f.lockstep = lockstep
	return f.Run()
}

// requireConserved fails unless every arrival was routed or rejected, no
// more requests finished than were routed, and every completion left one
// latency sample.
func requireConserved(t *testing.T, label string, res *Result) {
	t.Helper()
	if got := res.Routed + res.Rejected; got != res.Arrivals {
		t.Fatalf("%s: routed(%d)+rejected(%d) = %d, want arrivals %d",
			label, res.Routed, res.Rejected, got, res.Arrivals)
	}
	if got := res.Completed + res.Failed; got > res.Routed {
		t.Fatalf("%s: completed(%d)+failed(%d) = %d exceeds routed %d",
			label, res.Completed, res.Failed, got, res.Routed)
	}
	if res.Latency.Len() != res.Completed {
		t.Fatalf("%s: %d latency samples for %d completions",
			label, res.Latency.Len(), res.Completed)
	}
}

// requireIdentical fails unless got matches want byte for byte: routing
// log and full Result, energy included.
func requireIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.RoutingLog != want.RoutingLog {
		t.Fatalf("%s: routing log diverged from the lockstep oracle", label)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result diverged:\noracle: %+v\ngot:    %+v", label, want, got)
	}
}

// oracleScenarios are the configurations the scheduler matrix replays on
// both schedulers and every worker count: a faulty bare-router fleet, the
// gateway chaos composition with hedges, retries, breakers and node loss,
// a calm fleet where most ticks find most nodes idle (the case the
// event-horizon scheduler actually skips work on), and the shared and
// disaggregated LLM fleets, whose token loops and KV handoffs cross tick
// boundaries.
func oracleScenarios(t *testing.T) map[string]func() Config {
	t.Helper()
	return map[string]func() Config{
		"faults": func() Config {
			cfg := baseConfig(t)
			cfg.Policy = SLOAware
			cfg.NodeFaults = []faults.NodeFault{
				{At: 0, Node: 1, Kind: faults.GPUDegrade, GPU: 0, Stretch: 3.0},
				{At: 140 * sim.Millisecond, Node: 2, Kind: faults.NodeDown,
					Duration: 80 * sim.Millisecond},
			}
			return cfg
		},
		"chaos-gateway": func() Config {
			cfg := chaosConfig(t)
			applyChaos(t, &cfg, "rack-loss")
			applyChaos(t, &cfg, "gray-node")
			cfg.Gateway = &gateway.Config{}
			return cfg
		},
		"sparse": func() Config {
			// Light load on a wide fleet: most ticks advance only some of
			// the nodes, so idle nodes and lagging node clocks (including
			// the final energy fast-forward) are on the hot path.
			cfg := baseConfig(t)
			cfg.Nodes = 6
			cfg.Workloads = cfg.Workloads[:1]
			return cfg
		},
		"llm-mixed":  llmBaseConfig,
		"llm-disagg": llmDisaggConfig,
	}
}

// TestEventHorizonLockstepMatrixIdentical is the scheduler's correctness
// oracle: for every scenario, the event-horizon scheduler at every worker
// count must be byte-identical — routing log and full result, energy
// included — to the serial lockstep fleet, and the oracle's result must
// conserve requests. Run under -race this also proves advancement rounds
// share nothing across workers.
func TestEventHorizonLockstepMatrixIdentical(t *testing.T) {
	for name, mk := range oracleScenarios(t) {
		t.Run(name, func(t *testing.T) {
			oracle := runFleet(mk(), true, 1)
			if oracle.RoutingLog == "" {
				t.Fatal("no routing decisions recorded")
			}
			if oracle.Completed == 0 {
				t.Fatal("degenerate scenario: nothing completed")
			}
			requireConserved(t, "lockstep", oracle)
			for _, workers := range []int{1, 0, 2, 8} {
				requireIdentical(t, fmt.Sprintf("event-horizon workers=%d", workers),
					oracle, runFleet(mk(), false, workers))
			}
			// The lockstep pool itself must also still be order-independent.
			requireIdentical(t, "lockstep workers=8", oracle, runFleet(mk(), true, 8))
		})
	}
}

// TestSLOAwareWindowOutOfOrderCompletions guards the router's windowed-P95
// state against completion replay order. Completions from different
// replicas interleave in fleet time; the fleet absorbs them sorted by
// (End, handle id). The latency window is per-replica, so the interleave
// must not leak: absorbing the same completions handle-major instead must
// leave every window — and the next SLO-aware pick — unchanged, while
// within one replica the window must still distinguish a slow replica from
// a fast one after the 64-sample ring has wrapped.
func TestSLOAwareWindowOutOfOrderCompletions(t *testing.T) {
	const n = 80 // past the 64-sample window, so eviction order matters
	mkCompl := func(h int, i int) server.Completion {
		lat := sim.Duration(1000 + 200*h) // replica 1 is consistently slower
		arr := sim.Time(i*100 + h*7)
		return server.Completion{Arrival: arr, End: arr + lat}
	}

	absorb := func(order string) (*router, *modelState) {
		r := testRouter(SLOAware)
		m := fakeModel(2)
		switch order {
		case "fleet": // interleaved by (End, id), the pullCompletions order
			for i := 0; i < n; i++ {
				for h := 0; h < 2; h++ {
					r.absorb(m, m.replicas[h], mkCompl(h, i), 0)
				}
			}
		case "handle-major":
			for h := 0; h < 2; h++ {
				for i := 0; i < n; i++ {
					r.absorb(m, m.replicas[h], mkCompl(h, i), 0)
				}
			}
		}
		return r, m
	}

	rf, mf := absorb("fleet")
	rh, mh := absorb("handle-major")
	for h := 0; h < 2; h++ {
		pf, ph := mf.replicas[h].lat.p95(), mh.replicas[h].lat.p95()
		if pf != ph {
			t.Fatalf("replica %d: P95 depends on cross-replica absorb order: %.1f vs %.1f", h, pf, ph)
		}
	}
	if mf.replicas[0].lat.p95() >= mf.replicas[1].lat.p95() {
		t.Fatalf("window lost the slow replica after wraparound: P95 %.1f vs %.1f",
			mf.replicas[0].lat.p95(), mf.replicas[1].lat.p95())
	}
	hf, hh := rf.pick(mf, 0, -1), rh.pick(mh, 0, -1)
	if hf == nil || hh == nil || hf.id != hh.id {
		t.Fatalf("SLO-aware pick depends on absorb interleave: %v vs %v", hf, hh)
	}
	if hf.id != 0 {
		t.Fatalf("picked the slow replica %d", hf.id)
	}
}
