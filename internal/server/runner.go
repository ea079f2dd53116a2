package server

import (
	"sync"

	"krisp/internal/core"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/policies"
	"krisp/internal/sim"
)

// runShape fingerprints everything baked into a pooled run context at
// construction time and not reset between runs: the device spec a Device
// is sized for, the HSA cost model a command processor is configured with,
// and the stack fan-out. Two configs with equal shapes can share a
// context; anything else (seeds, windows, policies, jitter, faults) is
// per-run state the reuse path reapplies.
type runShape struct {
	spec gpu.DeviceSpec
	hsa  hsa.Config
	gpus int
}

// runState is the reusable context behind Run: a Node whose replicas serve
// the configured workers, the Run-side bookkeeping for each of them, and
// the scratch slices the setup phase fills. Pooling it drives the serve
// lifecycle's steady-state allocations toward zero — a rerun resets the
// node in place (engine heap, device counters, meters, queues, replicas)
// instead of rebuilding the stack.
type runState struct {
	shape    runShape
	poolable bool

	node     *Node
	coreTels []*core.Telemetry
	slots    []runSlot

	// Per-run driver state: the measurement window, the chaos harness
	// (nil unless faults are armed) and the open-loop arrival queue (nil
	// for the closed loop).
	measureStart, measureEnd sim.Time
	chaos                    *chaosHarness
	open                     *openLoop

	// Setup scratch, reused across runs.
	rightSizes  []int
	perGPU      [][]int
	assignments []policies.Assignment
}

// statePool is the interface runPool is held behind. Production uses
// sync.Pool (exclusive Gets under concurrent runs, idle contexts fall to
// the garbage collector); the reuse-determinism test substitutes a
// stack-backed pool, because under the race detector sync.Pool drops a
// quarter of Puts on purpose and "did the rerun hit the reset path"
// becomes unobservable.
type statePool interface {
	Get() any
	Put(any)
}

// runPool recycles run contexts across Run invocations.
var runPool statePool = &sync.Pool{}

// acquireRun returns a run context for a defaulted node config whose
// command processors use hsaCfg: a pooled one of the same shape reset in
// place when available, a freshly built one otherwise. Telemetry runs are
// never pooled — their stack wiring holds per-hub handles — so they build
// fresh and are discarded on release.
func acquireRun(nc NodeConfig, hsaCfg hsa.Config) *runState {
	shape := runShape{spec: nc.Spec, hsa: hsaCfg, gpus: nc.GPUs}
	poolable := nc.Telemetry == nil
	if poolable {
		if v := runPool.Get(); v != nil {
			st := v.(*runState)
			if st.shape == shape {
				st.node.reset()
				st.node.cfg = nc
				return st
			}
			// Shape mismatch: drop the stale context and build fresh.
		}
	}
	st := &runState{
		shape:    shape,
		poolable: poolable,
		node:     newNode(nc, hsaCfg),
		coreTels: make([]*core.Telemetry, nc.GPUs),
	}
	for g := range st.coreTels {
		st.coreTels[g] = core.NewTelemetry(nc.Telemetry, g)
	}
	return st
}

// reset returns a pooled node to its just-built state: the engine heap is
// recycled, devices and meters rezeroed, queues parked on their
// processors' free lists, and every replica parked on its GPU's free list
// so that a rerun gets the same replicas back in creation order.
func (n *Node) reset() {
	n.eng.Reset()
	for _, g := range n.gpus {
		g.dev.Reset()
		g.meter.Rezero()
		g.cp.Reset()
	}
	n.inj = nil
	for i := len(n.replicas) - 1; i >= 0; i-- {
		n.replicas[i].recycle()
		n.replicas[i] = nil
	}
	n.replicas = n.replicas[:0]
	n.replicaSeq = 0
}

// release returns the context to the pool. Only called on the normal exit
// path — a panicked run never re-pools its half-mutated context.
func (st *runState) release() {
	if st.poolable {
		runPool.Put(st)
	}
}

// scratchInts returns buf resized to n, reusing its backing array.
func scratchInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
