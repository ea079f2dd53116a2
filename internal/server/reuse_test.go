package server

import (
	"bytes"
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

// parkedRun returns the most recently parked run context without taking
// it off the pool, or nil.
func parkedRun() *runState {
	runPool.mu.Lock()
	defer runPool.mu.Unlock()
	if n := len(runPool.free); n > 0 {
		return runPool.free[n-1]
	}
	return nil
}

// TestRunReuseDeterministic is the zero-alloc lifecycle's correctness
// oracle: a run on a freshly built context and the same run replayed on a
// pooled, reset-in-place context must produce byte-identical Results —
// stats, latency samples, energy, and fault counters included. Run under
// -race in CI, this also proves the pool hands out exclusive contexts.
func TestRunReuseDeterministic(t *testing.T) {
	for name, mk := range reuseScenarios(t) {
		t.Run(name, func(t *testing.T) {
			// Empty the pool so the first run builds its context from
			// scratch; the reruns then take it back through the reset path.
			EmptyPool()
			fresh := Run(mk())
			if fresh.TotalRequests() == 0 {
				t.Fatal("degenerate scenario: nothing completed")
			}
			if parkedRun() == nil {
				t.Fatal("run did not return its context to the pool")
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
	// The HSA cost model is per-run state, not part of the shape: a run
	// under another policy, or with KRISP emulated instead of native,
	// reuses the context the previous run parked and serves exactly like a
	// freshly built one.
	m := mustModel(t, "squeezenet")
	policy := func(k policies.Kind, emulate bool) func() Config {
		return func() Config {
			return Config{
				Policy:         k,
				GPUs:           2,
				Workers:        []WorkerSpec{{Model: m, Batch: 32}, {Model: m, Batch: 16}, {Model: m, Batch: 8}},
				Seed:           14,
				Warmup:         8_000,
				Measure:        80_000,
				ForceEmulation: emulate,
			}
		}
	}
	for _, tc := range []struct {
		name        string
		first, next func() Config
	}{
		{"mps-default then krisp-i", policy(policies.MPSDefault, false), policy(policies.KRISPI, false)},
		{"krisp-i then krisp-i emulated", policy(policies.KRISPI, false), policy(policies.KRISPI, true)},
		{"krisp-i emulated then mps-default", policy(policies.KRISPI, true), policy(policies.MPSDefault, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			EmptyPool()
			fresh := Run(tc.next())
			if fresh.TotalRequests() == 0 {
				t.Fatal("degenerate scenario: nothing completed")
			}
			EmptyPool()
			Run(tc.first())
			st := parkedRun()
			if got := Run(tc.next()); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("run after a policy switch diverged:\nfresh: %+v\npooled: %+v", fresh, got)
			}
			if parkedRun() != st {
				t.Fatal("a policy switch rebuilt the run context instead of reusing it")
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
	for name, mk := range reuseScenarios(t) {
		t.Run(name, func(t *testing.T) {
			run := func() (Result, *telemetry.Registry) {
				cfg := mk()
				cfg.Telemetry = telemetry.NewHub(false)
				return Run(cfg), cfg.Telemetry.Registry()
			}
			EmptyPool()
			fresh, freshReg := run()
			want := freshReg.Snapshot()
			if len(want) == 0 {
				t.Fatal("degenerate scenario: the registry is empty")
			}
			st := parkedRun()
			if st == nil {
				t.Fatal("a registry-only run did not return its context to the pool")
			}
			got, gotReg := run()
			if !reflect.DeepEqual(got, fresh) {
				t.Fatal("pooled run with a registry diverged from the fresh result")
			}
			if !reflect.DeepEqual(gotReg.Snapshot(), want) {
				t.Fatal("pooled run's registry differs from a fresh context's")
			}
			if parkedRun() != st {
				t.Fatal("the pooled run did not reuse the parked context")
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
	EmptyPool()
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
	EmptyPool()
	Run(cfg(short))
	if got := Run(cfg(long)); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("same-name recipe on a pooled context: %.0f RPS, fresh context: %.0f RPS", got.RPS, fresh.RPS)
	}
}

// TestPooledTracedRunReplaysTrace is the tracer-side twin of
// TestRunReuseDeterministic: a context wired to a tracing hub is pooled
// like any other. Every reuse scenario replayed on the context a traced
// run parked must write the same Chrome trace, byte for byte, and the same
// Result as a freshly built context; the parked context must hold nothing
// of the hub it served. A node wired to a tracing hub is parked by
// Release as well, and releasing it twice panics.
func TestPooledTracedRunReplaysTrace(t *testing.T) {
	for name, mk := range reuseScenarios(t) {
		t.Run(name, func(t *testing.T) {
			run := func() (Result, []byte) {
				cfg := mk()
				cfg.Telemetry = telemetry.NewHub(true)
				res := Run(cfg)
				var buf bytes.Buffer
				if err := cfg.Telemetry.Trace().WriteChromeTrace(&buf); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			EmptyPool()
			fresh, freshTrace := run()
			st := parkedRun()
			if st == nil {
				t.Fatal("a traced run did not return its context to the pool")
			}
			requireUnbound(t, st)
			got, gotTrace := run()
			if parkedRun() != st {
				t.Fatal("the traced run did not reuse the parked context")
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Fatal("traced run on a pooled context diverged from the fresh result")
			}
			if !bytes.Equal(gotTrace, freshTrace) {
				t.Fatalf("traced run on a pooled context wrote a %d-byte trace, a fresh context %d bytes",
					len(gotTrace), len(freshTrace))
			}
		})
	}
	EmptyPool()
	n := NewNode(NodeConfig{GPUs: 2, Telemetry: telemetry.NewHub(true)})
	n.Release()
	if parkedRun() != n.run {
		t.Fatal("Release did not park a node wired to a tracing hub")
	}
	requireUnbound(t, n.run)
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	n.Release()
}

// requireUnbound fails unless the parked context st holds no handle on the
// hub of the run that parked it.
func requireUnbound(t *testing.T, st *runState) {
	t.Helper()
	n := st.node
	if n.cfg.Telemetry != nil {
		t.Fatal("a parked node still holds its hub")
	}
	for g := range n.gpus {
		s := &n.gpus[g]
		if s.devTel != nil && (!reflect.ValueOf(*s.devTel).IsZero() || !reflect.ValueOf(*s.cpTel).IsZero()) {
			t.Fatalf("GPU %d of a parked node still holds device or processor telemetry", g)
		}
	}
	for g, tel := range st.coreTels {
		if !reflect.ValueOf(*tel).IsZero() {
			t.Fatalf("a parked context still holds GPU %d's runtime telemetry", g)
		}
	}
	for i := range st.slots {
		if st.slots[i].tel != nil {
			t.Fatalf("a parked context still holds worker %d's telemetry", i)
		}
	}
}

// TestReleasedNodeDropsMail: mail still posted when a node is released
// belongs to the finished run. The node's next user must not receive it —
// the stale entry points at a replica struct the pool hands out again.
func TestReleasedNodeDropsMail(t *testing.T) {
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
