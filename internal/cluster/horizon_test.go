package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/faults"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// runFleet runs cfg with routing recorded, on the lockstep oracle when
// lockstep is set and on the event-horizon scheduler otherwise.
func runFleet(cfg Config, lockstep bool) *Result {
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
// both schedulers: a faulty bare-router fleet, the gateway chaos
// composition with hedges, retries, breakers and node loss, a calm fleet
// where most ticks find most nodes idle (the case the event-horizon
// scheduler actually skips work on), and the shared and
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
// oracle: for every scenario, the event-horizon scheduler must be
// byte-identical — routing log and full result, energy included — to the
// lockstep fleet, and the oracle's result must conserve requests.
func TestEventHorizonLockstepMatrixIdentical(t *testing.T) {
	for name, mk := range oracleScenarios(t) {
		t.Run(name, func(t *testing.T) {
			oracle := runFleet(mk(), true)
			if oracle.RoutingLog == "" {
				t.Fatal("no routing decisions recorded")
			}
			if oracle.Completed == 0 {
				t.Fatal("degenerate scenario: nothing completed")
			}
			if name == "chaos-gateway" && oracle.Gateway.Retries == 0 && oracle.Gateway.Hedges == 0 {
				t.Fatal("scenario exercised neither hedges nor retries")
			}
			requireConserved(t, "lockstep", oracle)
			requireIdentical(t, "event-horizon", oracle, runFleet(mk(), false))
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
		pf, ph := mf.replicas[h].lat.P95(), mh.replicas[h].lat.P95()
		if pf != ph {
			t.Fatalf("replica %d: P95 depends on cross-replica absorb order: %.1f vs %.1f", h, pf, ph)
		}
	}
	if mf.replicas[0].lat.P95() >= mf.replicas[1].lat.P95() {
		t.Fatalf("window lost the slow replica after wraparound: P95 %.1f vs %.1f",
			mf.replicas[0].lat.P95(), mf.replicas[1].lat.P95())
	}
	hf, hh := rf.pick(mf, 0, -1), rh.pick(mh, 0, -1)
	if hf == nil || hh == nil || hf.id != hh.id {
		t.Fatalf("SLO-aware pick depends on absorb interleave: %v vs %v", hf, hh)
	}
	if hf.id != 0 {
		t.Fatalf("picked the slow replica %d", hf.id)
	}
}

// TestWakeHeapMatchesSortedReference drives the wake heap directly with
// seeded random push/pop/lower/remove sequences and checks it against a
// plain sorted reference after every operation: each node in the heap
// knows its slot, nodes outside it have heapIdx -1, the heap order holds,
// and the top is the reference's (wake, id) minimum. Each sequence then
// drains the heap and checks the full pop order. Small wake ranges force
// ties, so the id tie-break is on the hot path.
func TestWakeHeapMatchesSortedReference(t *testing.T) {
	const nodes, ops = 12, 300
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &wakeHeap{}
		all := make([]*fleetNode, nodes)
		for i := range all {
			all[i] = &fleetNode{id: i, heapIdx: -1}
		}
		in := map[*fleetNode]bool{}
		sorted := func() []*fleetNode {
			ref := make([]*fleetNode, 0, len(in))
			for n := range in {
				ref = append(ref, n)
			}
			sort.Slice(ref, func(i, j int) bool { return wakeLess(ref[i], ref[j]) })
			return ref
		}
		randWake := func() sim.Time {
			if rng.Intn(8) == 0 {
				return sim.Never
			}
			return sim.Time(rng.Intn(16))
		}
		check := func(step int, op string) {
			t.Helper()
			if len(h.nodes) != len(in) {
				t.Fatalf("seed %d step %d (%s): heap holds %d nodes, reference %d",
					seed, step, op, len(h.nodes), len(in))
			}
			for i, n := range h.nodes {
				if !in[n] {
					t.Fatalf("seed %d step %d (%s): node %d in heap but not in reference", seed, step, op, n.id)
				}
				if n.heapIdx != i {
					t.Fatalf("seed %d step %d (%s): node %d at slot %d has heapIdx %d",
						seed, step, op, n.id, i, n.heapIdx)
				}
				if i > 0 && wakeLess(n, h.nodes[(i-1)/2]) {
					t.Fatalf("seed %d step %d (%s): node %d at slot %d sorts before its parent",
						seed, step, op, n.id, i)
				}
			}
			for _, n := range all {
				if !in[n] && n.heapIdx != -1 {
					t.Fatalf("seed %d step %d (%s): node %d outside the heap has heapIdx %d",
						seed, step, op, n.id, n.heapIdx)
				}
			}
			if ref := sorted(); len(ref) > 0 && h.nodes[0] != ref[0] {
				t.Fatalf("seed %d step %d (%s): top is node %d (wake %v), reference min node %d (wake %v)",
					seed, step, op, h.nodes[0].id, h.nodes[0].wake, ref[0].id, ref[0].wake)
			}
		}

		for step := 0; step < ops; step++ {
			n := all[rng.Intn(nodes)]
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				op = "push"
				if in[n] {
					continue
				}
				h.push(n, randWake())
				in[n] = true
			case r < 6:
				op = "pop"
				if len(in) == 0 {
					continue
				}
				want := sorted()[0]
				if got := h.pop(); got != want {
					t.Fatalf("seed %d step %d: popped node %d (wake %v), want node %d (wake %v)",
						seed, step, got.id, got.wake, want.id, want.wake)
				}
				delete(in, want)
			case r < 8:
				// lower is also called on nodes outside the heap (mail to
				// a node mid-advancement or down): it only records the key.
				op = "lower"
				old := n.wake
				wake := randWake()
				h.lower(n, wake)
				if want := min(old, wake); n.wake != want {
					t.Fatalf("seed %d step %d: lower(%v) from %v left wake %v, want %v",
						seed, step, wake, old, n.wake, want)
				}
			default:
				op = "remove"
				h.remove(n)
				delete(in, n)
			}
			check(step, op)
		}

		for i, want := range sorted() {
			if got := h.pop(); got != want {
				t.Fatalf("seed %d drain %d: popped node %d (wake %v), want node %d (wake %v)",
					seed, i, got.id, got.wake, want.id, want.wake)
			}
			delete(in, want)
		}
		if len(h.nodes) != 0 {
			t.Fatalf("seed %d: %d nodes left after draining", seed, len(h.nodes))
		}
	}
}
