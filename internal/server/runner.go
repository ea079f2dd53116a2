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

// runState is the pooled context behind Run and NewNode: a Node whose
// replicas serve the configured workers, the Run-side bookkeeping for each
// of them, and the scratch slices Run's setup phase fills. Pooling it
// drives the serve lifecycle's steady-state allocations toward zero — a
// rerun, or the next fleet's node, resets the node in place (engine heap,
// device counters, meters, queues, replicas, mailbox) instead of
// rebuilding the stack.
type runState struct {
	shape    runShape
	poolable bool

	node *Node
	// coreTels holds one runtime telemetry struct per GPU, rebound to each
	// Run's hub; fleet nodes never bind them.
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
// the garbage collector); the reuse-determinism tests substitute a
// stackPool through UseStackPool, because under the race detector
// sync.Pool drops a quarter of Puts on purpose and "did the rerun hit the
// reset path" becomes unobservable.
type statePool interface {
	Get() any
	Put(any)
}

// runPool recycles run contexts across Run invocations and fleet nodes.
var runPool statePool = &sync.Pool{}

// stackPool is a deterministic statePool: every Put is retained and Get
// returns the newest.
type stackPool struct {
	mu sync.Mutex
	xs []any
}

func (p *stackPool) Get() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.xs)
	if n == 0 {
		return nil
	}
	x := p.xs[n-1]
	p.xs[n-1] = nil
	p.xs = p.xs[:n-1]
	return x
}

func (p *stackPool) Put(x any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.xs = append(p.xs, x)
}

// UseStackPool swaps the context pool for an empty one that keeps every
// parked context, so a test can rely on the next Run or NewNode of the
// same shape reusing one, and returns a func that restores the previous
// pool. It must not be called while runs are in flight.
func UseStackPool() (restore func()) {
	old := runPool
	runPool = &stackPool{}
	return func() { runPool = old }
}

// acquireRun returns a run context for a defaulted node config whose
// command processors use hsaCfg: a pooled one of the same shape, reset in
// place and rewired to nc, when available; a freshly built one otherwise.
// Contexts wired to a hub with a tracer are never pooled — their queues'
// trace thread names were registered when the queues were created — so
// they build fresh and are discarded on release.
func acquireRun(nc NodeConfig, hsaCfg hsa.Config) *runState {
	shape := runShape{spec: nc.Spec, hsa: hsaCfg, gpus: nc.GPUs}
	poolable := nc.Telemetry.Trace() == nil
	if poolable {
		if v := runPool.Get(); v != nil {
			st := v.(*runState)
			if st.shape == shape {
				st.node.reset()
				st.node.parked = false
				st.node.cfg = nc
				st.node.bindTelemetry()
				return st
			}
			// Shape mismatch: drop the stale context and build fresh.
		}
	}
	st := &runState{shape: shape, poolable: poolable, node: newNode(nc, hsaCfg)}
	st.node.run = st
	return st
}

// reset returns a pooled node to its just-built state: the engine heap is
// recycled, devices and meters rezeroed, queues parked on their
// processors' free lists, every replica parked on its GPU's free list
// so that a rerun gets the same replicas back in creation order, and the
// mailbox emptied.
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
	clear(n.mail)
	n.mail = n.mail[:0]
	n.mailSeq = 0
	n.mailIdx = 0
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
