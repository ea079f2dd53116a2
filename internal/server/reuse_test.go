package server

import (
	"reflect"
	"testing"

	"krisp/internal/faults"
	"krisp/internal/kernels"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/telemetry"
)

// reuseScenarios are the configurations the run-context reuse path must
// replay byte-identically: a plain KRISP-I serve, a multi-worker
// multi-GPU contention case, and a chaos run whose fault timeline
// exercises the hardened path (watchdogs, retries, queue resets) on a
// recycled stack.
func reuseScenarios(t *testing.T) map[string]func() Config {
	t.Helper()
	m := mustModel(t, "squeezenet")
	m2 := mustModel(t, "mobilenet")
	return map[string]func() Config{
		"krisp-i": func() Config {
			return Config{
				Policy:  policies.KRISPI,
				Workers: []WorkerSpec{{Model: m, Batch: 32}},
				Seed:    11,
				Warmup:  8_000,
				Measure: 80_000,
			}
		},
		"contended-multigpu": func() Config {
			return Config{
				Policy: policies.KRISPO,
				GPUs:   2,
				Workers: []WorkerSpec{
					{Model: m, Batch: 32}, {Model: m2, Batch: 16},
					{Model: m, Batch: 32}, {Model: m2, Batch: 16},
				},
				Seed:    12,
				Warmup:  10_000,
				Measure: 100_000,
			}
		},
		"chaos": func() Config {
			return Config{
				Policy:  policies.KRISPI,
				Workers: []WorkerSpec{{Model: m, Batch: 32}, {Model: m, Batch: 32}},
				Seed:    13,
				Warmup:  20_000,
				Measure: 150_000,
				Faults: &faults.Plan{
					Seed: 3,
					CUKills: []faults.CUKill{
						{At: 40_000, GPU: 0, CU: 0},
						{At: 40_000, GPU: 0, CU: 1},
					},
					QueueStalls: []faults.QueueStall{
						{At: 80_000, GPU: 0, Queue: 0, Duration: 1e12},
					},
					WatchdogTimeout: 30_000,
				},
			}
		},
	}
}

// TestRunReuseDeterministic is the zero-alloc lifecycle's correctness
// oracle: a run on a freshly built context and the same run replayed on a
// pooled, reset-in-place context must produce byte-identical Results —
// stats, latency samples, energy, and fault counters included. Run under
// -race in CI, this also proves the pool hands out exclusive contexts.
func TestRunReuseDeterministic(t *testing.T) {
	defer UseStackPool()()
	for name, mk := range reuseScenarios(t) {
		t.Run(name, func(t *testing.T) {
			// Empty the pool so the first run builds its context from
			// scratch, and use a deterministic pool so the reruns are
			// guaranteed to hit the reset path.
			UseStackPool()
			fresh := Run(mk())
			if fresh.TotalRequests() == 0 {
				t.Fatal("degenerate scenario: nothing completed")
			}
			if st, _ := runPool.Get().(*runState); st == nil {
				t.Fatal("run did not return its context to the pool")
			} else {
				runPool.Put(st)
			}
			for i := 0; i < 3; i++ {
				if got := Run(mk()); !reflect.DeepEqual(got, fresh) {
					t.Fatalf("rerun %d on pooled context diverged:\nfresh: %+v\npooled: %+v", i, fresh, got)
				}
			}
			// A shape change must rebuild rather than misuse the pooled
			// context — and the original shape must still replay exactly
			// afterwards.
			other := mk()
			other.GPUs += 1
			Run(other)
			if got := Run(mk()); !reflect.DeepEqual(got, fresh) {
				t.Fatal("run after a shape change diverged from the fresh result")
			}
		})
	}
}

// TestPooledRunRebindsTelemetry is the registry-side twin of
// TestRunReuseDeterministic. A Run whose hub has a registry but no tracer
// is pooled too; the reused context's runtime, device and processor
// telemetry must be rebound to the new run's registry. Every reuse
// scenario, chaos included (healthy-CU and fault series), must publish
// exactly the series a freshly built context publishes, and must leave
// the previous run's registry untouched.
func TestPooledRunRebindsTelemetry(t *testing.T) {
	defer UseStackPool()()
	for name, mk := range reuseScenarios(t) {
		t.Run(name, func(t *testing.T) {
			run := func() (Result, *telemetry.Registry) {
				cfg := mk()
				cfg.Telemetry = telemetry.NewHub(false)
				return Run(cfg), cfg.Telemetry.Registry()
			}
			UseStackPool()
			fresh, freshReg := run()
			want := freshReg.Snapshot()
			if len(want) == 0 {
				t.Fatal("degenerate scenario: the registry is empty")
			}
			st, _ := runPool.Get().(*runState)
			if st == nil {
				t.Fatal("a registry-only run did not return its context to the pool")
			}
			runPool.Put(st)
			got, gotReg := run()
			if !reflect.DeepEqual(got, fresh) {
				t.Fatal("pooled run with a registry diverged from the fresh result")
			}
			if !reflect.DeepEqual(gotReg.Snapshot(), want) {
				t.Fatal("pooled run's registry differs from a fresh context's")
			}
			if again, _ := runPool.Get().(*runState); again != st {
				t.Fatal("the pooled run did not reuse the parked context")
			} else {
				runPool.Put(again)
			}
			run()
			if !reflect.DeepEqual(gotReg.Snapshot(), want) {
				t.Fatal("a later run on the pooled context wrote into an earlier run's registry")
			}
		})
	}
}

// TestNodeReplicaReuseDeterministic drives the fleet-side twin: a node
// whose replicas are drained, released, and respawned from the pool must
// serve exactly like one that builds every replica fresh.
func TestNodeReplicaReuseDeterministic(t *testing.T) {
	m, ok := models.ByName("squeezenet")
	if !ok {
		t.Fatal("model missing")
	}
	run := func(release bool) (ReplicaStats, ReplicaStats) {
		n := NewNode(NodeConfig{Seed: 9})
		r1 := n.AddReplica(ReplicaSpec{Model: m, Batch: 8, CUs: 30})
		for i := 0; i < 16; i++ {
			r1.Submit(n.Now())
			n.RunUntil(n.Now() + 5_000)
		}
		r1.Drain()
		n.RunUntil(n.Now() + 50_000)
		if !r1.Drained() {
			t.Fatal("replica did not drain")
		}
		s1 := r1.Stats()
		var buf []Completion
		r1.TakeCompletions(buf)
		if release {
			r1.Release()
		}
		// The respawn must behave identically whether it recycles r1's
		// struct and queue or builds fresh ones.
		r2 := n.AddReplica(ReplicaSpec{Model: m, Batch: 8, CUs: 45})
		for i := 0; i < 16; i++ {
			r2.Submit(n.Now())
			n.RunUntil(n.Now() + 5_000)
		}
		n.RunUntil(n.Now() + 50_000)
		return s1, r2.Stats()
	}
	s1a, s2a := run(false)
	s1b, s2b := run(true)
	if s1a != s1b || s2a != s2b {
		t.Fatalf("released-replica respawn diverged:\nfresh:  %+v / %+v\npooled: %+v / %+v", s1a, s2a, s1b, s2b)
	}
	if s2a.CompletedRequests == 0 {
		t.Fatal("respawned replica served nothing")
	}
}

// TestSameNameRecipesKeepTheirKernels guards the kernel-sequence ownership
// rule: a sequence belongs to its model's recipe, not to the model's name.
// Two Custom recipes share a name but not their kernels (2 against 20), so
// a pooled context that served the short one must run the long one exactly
// as a freshly built context does.
func TestSameNameRecipesKeepTheirKernels(t *testing.T) {
	defer UseStackPool()()
	sq := mustModel(t, "squeezenet")
	custom := func(n int) models.Model {
		return models.Custom("same-name", sq.PaperRightSize, func(batch int) []kernels.Desc {
			return sq.Kernels(batch)[:n]
		})
	}
	short, long := custom(2), custom(20)
	cfg := func(m models.Model) Config {
		return Config{
			Policy:  policies.KRISPI,
			Workers: []WorkerSpec{{Model: m, Batch: 8}},
			Seed:    5,
			Warmup:  5_000,
			Measure: 50_000,
		}
	}
	fresh := Run(cfg(long))
	if fresh.TotalRequests() == 0 {
		t.Fatal("degenerate scenario: nothing completed")
	}
	UseStackPool()
	Run(cfg(short))
	if got := Run(cfg(long)); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("same-name recipe on a pooled context: %.0f RPS, fresh context: %.0f RPS", got.RPS, fresh.RPS)
	}
}

// TestNodePoolSkipsTracedHubs pins when Release parks a node: always,
// unless the node was wired to a hub with a tracer, whose queue thread
// names were registered when the queues were created.
func TestNodePoolSkipsTracedHubs(t *testing.T) {
	defer UseStackPool()()
	for _, tc := range []struct {
		name   string
		hub    *telemetry.Hub
		pooled bool
	}{
		{"no telemetry", nil, true},
		{"registry only", telemetry.NewHub(false), true},
		{"tracer", telemetry.NewHub(true), false},
	} {
		n := NewNode(NodeConfig{GPUs: 2, Telemetry: tc.hub})
		n.Release()
		st, _ := runPool.Get().(*runState)
		if got := st != nil; got != tc.pooled {
			t.Errorf("%s: node parked = %v, want %v", tc.name, got, tc.pooled)
		}
		if st != nil && st.node != n {
			t.Errorf("%s: the pool returned a different node", tc.name)
		}
	}
	n := NewNode(NodeConfig{})
	n.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	n.Release()
}

// TestReleasedNodeDropsMail: mail still posted when a node is released
// belongs to the finished run. The node's next user must not receive it —
// the stale entry points at a replica struct the pool hands out again.
func TestReleasedNodeDropsMail(t *testing.T) {
	defer UseStackPool()()
	m := mustModel(t, "squeezenet")
	n := NewNode(NodeConfig{Seed: 3})
	n.Post(1_000, 1_000, n.AddReplica(ReplicaSpec{Model: m, Batch: 8}), 1, 0, 0, false)
	n.Release()
	if NewNode(NodeConfig{Seed: 3}) != n {
		t.Fatal("the pool did not hand the released node back")
	}
	r := n.AddReplica(ReplicaSpec{Model: m, Batch: 8})
	n.AdvanceTo(50_000)
	if s := r.Stats(); s.CompletedRequests+s.Outstanding() != 0 {
		t.Fatalf("mail posted before Release reached a replica after it: %+v", s)
	}
}
