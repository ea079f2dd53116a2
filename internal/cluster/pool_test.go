package cluster

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/server"
	"krisp/internal/telemetry"
)

// TestPooledFleetReplaysByteIdentical is the node pool's correctness
// oracle. Every scheduler-oracle scenario first runs on never-pooled nodes
// (New(cfg).Run() parks nothing, so the pool stays empty), then through
// Run, which parks its nodes, in forward and then reverse order: every run
// after the first serves on nodes an earlier scenario left behind. Each
// pooled Result must equal the fresh one, and the Results kept from the
// forward pass must not change while later runs reuse their nodes.
func TestPooledFleetReplaysByteIdentical(t *testing.T) {
	server.EmptyPool()
	scenarios := oracleScenarios(t)
	var names []string
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	config := func(name string) Config {
		cfg := scenarios[name]()
		cfg.RecordRouting = true
		return cfg
	}
	fresh := make(map[string]*Result, len(names))
	for _, name := range names {
		fresh[name] = New(config(name)).Run()
	}
	forward := make(map[string]*Result, len(names))
	for _, name := range names {
		forward[name] = Run(config(name))
		requireIdentical(t, "pooled "+name, fresh[name], forward[name])
	}
	for i := len(names) - 1; i >= 0; i-- {
		name := names[i]
		requireIdentical(t, "pooled (reverse order) "+name, fresh[name], Run(config(name)))
	}
	for _, name := range names {
		requireIdentical(t, "held "+name, fresh[name], forward[name])
	}
}

// TestPooledFleetRebindsTelemetry checks that pooled nodes are rewired to
// each run's hub: a run on pooled nodes must publish exactly the series a
// fresh fleet publishes into its own registry, and must leave the previous
// run's registry untouched.
func TestPooledFleetRebindsTelemetry(t *testing.T) {
	server.EmptyPool()
	run := func(pooled bool) *telemetry.Registry {
		cfg := baseConfig(t)
		cfg.Telemetry = telemetry.NewHub(false)
		if pooled {
			Run(cfg)
		} else {
			New(cfg).Run()
		}
		return cfg.Telemetry.Registry()
	}
	want := run(false).Snapshot()
	first := run(true)
	held := first.Snapshot()
	if !reflect.DeepEqual(held, want) {
		t.Fatal("first run's registry differs from a fresh fleet's")
	}
	if got := run(true).Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("pooled run's registry differs from a fresh fleet's")
	}
	if got := first.Snapshot(); !reflect.DeepEqual(got, held) {
		t.Fatal("a later run on the pooled nodes wrote into an earlier run's registry")
	}
}

// TestPooledFleetReplaysTrace: nodes wired to a tracing hub are pooled
// like any other. A traced fleet on the nodes a traced fleet parked must
// write the same Chrome trace, byte for byte, and the same Result as a
// never-pooled fleet. The scenarios replan, drain and release replicas,
// so pooled command processors must hand their queue IDs (the trace's
// thread ids) out again exactly as new ones do.
func TestPooledFleetReplaysTrace(t *testing.T) {
	scenarios := oracleScenarios(t)
	for _, name := range []string{"faults", "llm-disagg"} {
		t.Run(name, func(t *testing.T) {
			run := func(pooled bool) (*Result, []byte) {
				cfg := scenarios[name]()
				cfg.RecordRouting = true
				cfg.Telemetry = telemetry.NewHub(true)
				var res *Result
				if pooled {
					res = Run(cfg)
				} else {
					res = New(cfg).Run()
				}
				var buf bytes.Buffer
				if err := cfg.Telemetry.Trace().WriteChromeTrace(&buf); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			server.EmptyPool()
			fresh, freshTrace := run(false)
			run(true) // park the nodes
			for i := 0; i < 2; i++ {
				got, gotTrace := run(true)
				requireIdentical(t, "traced fleet on pooled nodes", fresh, got)
				if !bytes.Equal(gotTrace, freshTrace) {
					t.Fatalf("run %d: traced fleet on pooled nodes wrote a %d-byte trace, a fresh fleet %d bytes",
						i, len(gotTrace), len(freshTrace))
				}
			}
		})
	}
}

// TestPooledFleetRunAllocs bounds what a warm fleet run allocates once its
// nodes (engines, devices, processors, replicas), kernel sequences and
// gateway breakers come from pools: what remains is the run's own
// control-plane state and its Result.
func TestPooledFleetRunAllocs(t *testing.T) {
	server.EmptyPool()
	cfg := baseConfig(t)
	Run(cfg) // fill the pool
	allocs := testing.AllocsPerRun(5, func() { Run(cfg) })
	// 187 measured on go1.24 (188 under -race); the ceiling leaves 25%.
	const ceiling = 234
	if allocs > ceiling {
		t.Fatalf("warm pooled fleet run allocates %.0f objects, want at most %d", allocs, ceiling)
	}
}

// TestPooledNodesCrossBetweenFleetAndServe: fleet nodes and server.Run
// contexts share one pool, so a node an LLM fleet parked can serve a
// classic Run of the same shape next, and the other way round. Neither
// may carry lifecycle state into the other: a recycled replica that kept
// its continuous-batching engine would push Run's fixed batches through
// the token loop.
func TestPooledNodesCrossBetweenFleetAndServe(t *testing.T) {
	server.EmptyPool()
	m, ok := models.ByName("squeezenet")
	if !ok {
		t.Fatal("model missing")
	}
	for _, gpus := range []int{1, 2} {
		fleetCfg := func() Config {
			cfg := llmDisaggConfig()
			cfg.GPUsPerNode = gpus
			return cfg
		}
		serveCfg := server.Config{
			Policy:  policies.KRISPI,
			GPUs:    gpus,
			Workers: []server.WorkerSpec{{Model: m, Batch: 16}, {Model: m, Batch: 16}},
			Seed:    21,
			Warmup:  5_000,
			Measure: 60_000,
		}
		server.EmptyPool()
		freshServe := server.Run(serveCfg)
		if freshServe.TotalRequests() == 0 {
			t.Fatal("degenerate serve scenario: nothing completed")
		}
		server.EmptyPool()
		freshFleet := New(fleetCfg()).Run()

		// Fleet first: server.Run reuses the LLM fleet's parked nodes.
		server.EmptyPool()
		Run(fleetCfg())
		if got := server.Run(serveCfg); !reflect.DeepEqual(got, freshServe) {
			t.Fatalf("%d GPUs: Run on a node an LLM fleet parked: %.0f RPS, fresh: %.0f RPS",
				gpus, got.RPS, freshServe.RPS)
		}
		// Serve first: the fleet reuses Run's parked contexts.
		server.EmptyPool()
		server.Run(serveCfg)
		requireIdentical(t, "fleet on a node Run parked", freshFleet, Run(fleetCfg()))
	}
}
