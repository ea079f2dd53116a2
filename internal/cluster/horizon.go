package cluster

import "krisp/internal/sim"

// wakeHeap is the event-horizon scheduler's core structure: an indexed
// binary min-heap of up nodes keyed by wake time, tie-broken by node id so
// pop order is deterministic.
//
// Invariants, maintained across the run:
//
//   - Every up node is in the heap exactly once; down nodes are removed
//     when the fault fires and re-pushed on recovery.
//   - A node's wake is a lower bound on the virtual time it can next act:
//     min(its engine's earliest pending event, the earliest delivery of
//     any mail posted to it since its last advancement). A node with
//     neither parks at sim.Never.
//   - Between advancements a node's engine is frozen, so its wake can only
//     move earlier through one path — the router (or gateway fabric)
//     posting mail — and noteMail lowers the key at the moment of posting.
//     Advancement itself drains the mailbox completely (AdvanceTo panics
//     on stranded mail), so the post-advance wake is just the engine's
//     next event time.
//
// settleEvent then pops exactly the nodes whose wake lies inside the
// granted horizon: O(active log n) per tick rather than an O(n) fleet scan.
type wakeHeap struct {
	nodes []*fleetNode
}

func wakeLess(a, b *fleetNode) bool {
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	return a.id < b.id
}

// push inserts a node with the given wake time.
func (w *wakeHeap) push(n *fleetNode, wake sim.Time) {
	n.wake = wake
	n.heapIdx = len(w.nodes)
	w.nodes = append(w.nodes, n)
	w.siftUp(n.heapIdx)
}

// pop removes and returns the minimum-wake node.
func (w *wakeHeap) pop() *fleetNode {
	n := w.nodes[0]
	last := len(w.nodes) - 1
	w.nodes[0] = w.nodes[last]
	w.nodes[0].heapIdx = 0
	w.nodes[last] = nil
	w.nodes = w.nodes[:last]
	if last > 0 {
		w.siftDown(0)
	}
	n.heapIdx = -1
	return n
}

// remove deletes a node wherever it sits (node-down faults).
func (w *wakeHeap) remove(n *fleetNode) {
	i := n.heapIdx
	if i < 0 {
		return
	}
	last := len(w.nodes) - 1
	w.nodes[i] = w.nodes[last]
	w.nodes[i].heapIdx = i
	w.nodes[last] = nil
	w.nodes = w.nodes[:last]
	if i < last {
		if !w.siftUp(i) {
			w.siftDown(i)
		}
	}
	n.heapIdx = -1
}

// lower moves a node's wake earlier (mail posted with an earlier delivery).
func (w *wakeHeap) lower(n *fleetNode, wake sim.Time) {
	if wake >= n.wake {
		return
	}
	n.wake = wake
	if n.heapIdx >= 0 {
		w.siftUp(n.heapIdx)
	}
}

func (w *wakeHeap) siftUp(i int) bool {
	n := w.nodes[i]
	j := i
	for j > 0 {
		p := (j - 1) / 2
		if !wakeLess(n, w.nodes[p]) {
			break
		}
		w.nodes[j] = w.nodes[p]
		w.nodes[j].heapIdx = j
		j = p
	}
	if j == i {
		return false
	}
	w.nodes[j] = n
	n.heapIdx = j
	return true
}

func (w *wakeHeap) siftDown(i int) {
	n := w.nodes[i]
	size := len(w.nodes)
	j := i
	for {
		c := j*2 + 1
		if c >= size {
			break
		}
		if c+1 < size && wakeLess(w.nodes[c+1], w.nodes[c]) {
			c++
		}
		if !wakeLess(w.nodes[c], n) {
			break
		}
		w.nodes[j] = w.nodes[c]
		w.nodes[j].heapIdx = j
		j = c
	}
	if j != i {
		w.nodes[j] = n
		n.heapIdx = j
	}
}

// nodeWake derives a node's heap key from its engine: the earliest pending
// event, or Never when idle. Only valid when the node's mailbox is empty
// (right after construction, advancement, or recovery).
func nodeWake(n *fleetNode) sim.Time {
	if at, ok := n.node.NextEventTime(); ok {
		return at
	}
	return sim.Never
}

// noteMail lowers the node's wake to a just-posted mail delivery. Only the
// event-horizon scheduler posts mail, so hz is always set here; nodes not
// currently in the heap just record the earlier wake.
func (n *fleetNode) noteMail(deliver sim.Time) { n.hz.lower(n, deliver) }

// settleEvent is the event-horizon advancement phase: pop every node whose
// wake lies at or inside the horizon, advance it on the calling goroutine,
// and re-key it from its engine. AdvanceTo fires every event at or before
// the horizon, so the re-pushed key lands past it and the loop visits each
// active node once, in (wake, id) order.
func (f *Fleet) settleEvent(horizon sim.Time) {
	for len(f.hz.nodes) > 0 && f.hz.nodes[0].wake <= horizon {
		n := f.hz.pop()
		n.node.AdvanceTo(horizon)
		f.hz.push(n, nodeWake(n))
	}
}
