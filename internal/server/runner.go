package server

import (
	"sync"

	"krisp/internal/core"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/policies"
	"krisp/internal/sim"
)

// runShape fingerprints what a pooled run context fixes at construction
// and never resets: the device spec a Device is sized for and the stack
// fan-out. Two configs with equal shapes can share a context; everything
// else (HSA cost model, seeds, windows, policies, jitter, faults, hub) is
// per-run state the reuse path reapplies.
type runShape struct {
	spec gpu.DeviceSpec
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
	shape runShape

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

// runPool recycles run contexts across Run invocations and fleet nodes: a
// LIFO free list, so an acquire gets the most recently parked context. It
// holds at most as many contexts as were ever live at once, because an
// acquire that pops a context of another shape drops it.
var runPool struct {
	mu   sync.Mutex
	free []*runState
}

// popRun takes the most recently parked context off the pool, or nil.
func popRun() *runState {
	runPool.mu.Lock()
	defer runPool.mu.Unlock()
	n := len(runPool.free)
	if n == 0 {
		return nil
	}
	st := runPool.free[n-1]
	runPool.free[n-1] = nil
	runPool.free = runPool.free[:n-1]
	return st
}

// EmptyPool drops every parked run context, so the next Run or NewNode
// builds a fresh one. Tests call it to get a never-pooled reference run.
func EmptyPool() {
	runPool.mu.Lock()
	defer runPool.mu.Unlock()
	runPool.free = nil
}

// acquireRun returns a run context for a defaulted node config whose
// command processors use hsaCfg: a pooled one of the same shape, reset in
// place and rewired to nc, when available; a freshly built one otherwise.
func acquireRun(nc NodeConfig, hsaCfg hsa.Config) *runState {
	shape := runShape{spec: nc.Spec, gpus: nc.GPUs}
	if st := popRun(); st != nil && st.shape == shape {
		st.node.reset(hsaCfg)
		st.node.parked = false
		st.node.cfg = nc
		st.node.bindTelemetry()
		return st
	}
	// An empty pool, or a context of another shape, which is dropped.
	st := &runState{shape: shape, node: newNode(nc, hsaCfg)}
	st.node.run = st
	return st
}

// reset returns a pooled node to its just-built state: the engine heap is
// recycled, devices and meters rezeroed, queues parked on their
// processors' free lists, every replica parked on its GPU's free list
// so that a rerun gets the same replicas back in creation order, and the
// mailbox emptied. The command processors take hsaCfg, the new run's cost
// model.
func (n *Node) reset(hsaCfg hsa.Config) {
	n.eng.Reset()
	for _, g := range n.gpus {
		g.dev.Reset()
		g.meter.Rezero()
		g.cp.Reset(hsaCfg)
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

// release unbinds the context's telemetry and parks it on the pool. Only
// called on the normal exit path — a panicked run never re-pools its
// half-mutated context.
func (st *runState) release() {
	st.unbindTelemetry()
	runPool.mu.Lock()
	defer runPool.mu.Unlock()
	runPool.free = append(runPool.free, st)
}

// unbindTelemetry drops every handle the context holds on the finished
// run's hub and kernel trace, so a parked context pins no hub, registry or
// tracer: the node's config, its stacks' device and processor telemetry,
// the replicas' runtime configs, the Run runtimes' telemetry, and the
// workers' slots (batch telemetry, chaos harness, open loop).
func (st *runState) unbindTelemetry() {
	n := st.node
	n.cfg.Telemetry = nil
	for _, r := range n.replicas {
		r.rt.Reconfigure(r.rt.Queue(), &r.sizer, core.Config{})
	}
	for g := range n.gpus {
		s := &n.gpus[g]
		s.dev.SetTelemetry(nil)
		s.cp.SetTelemetry(nil)
		if s.devTel != nil {
			*s.devTel, *s.cpTel = gpu.Telemetry{}, hsa.Telemetry{}
		}
	}
	for _, t := range st.coreTels {
		*t = core.Telemetry{}
	}
	clear(st.slots)
	st.chaos, st.open = nil, nil
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
