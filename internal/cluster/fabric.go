package cluster

import (
	"krisp/internal/cluster/gateway"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// fleetFabric implements gateway.Fabric over the fleet's router and
// replica handles. Everything runs on the fleet control goroutine at tick
// boundaries, so the gateway's decisions slot into the same deterministic
// order as the router's.
type fleetFabric struct {
	f *Fleet
}

// PickReplica routes a gateway copy (hedge or retry) through the fleet's
// configured routing policy, excluding the replica the copy must avoid.
func (fb *fleetFabric) PickReplica(model, exclude int, now sim.Time) int {
	m := fb.f.router.models[model]
	h := fb.f.router.pick(m, now, exclude)
	if h == nil {
		return -1
	}
	return h.id
}

// SendCopy commits one secondary copy. It raises the target's occupancy —
// hedge copies compete for admission headroom like primaries — but does
// not count toward the model's routed total: that tracks logical requests,
// and this one is already routed.
func (fb *fleetFabric) SendCopy(model, replica int, id uint64, arrival sim.Time, kind gateway.CopyKind) {
	h := fb.f.handleByID[replica]
	if h == nil || h.dead {
		return
	}
	h.outstanding++
	h.routed++
	fb.f.obs.onCopy(id, replica, kind)
	fb.f.router.deliver(h, arrival, fb.f.now, arrival, id, 0, 0, false)
}

// CancelCopy revokes the losing copy of a hedged request. A dequeued copy
// never reached the replica's batch loop, so its occupancy is released
// here; an in-flight copy completes at the batch boundary with
// Cancelled=true and releases it through absorb.
func (fb *fleetFabric) CancelCopy(replica int, id uint64) {
	h := fb.f.handleByID[replica]
	if h == nil || h.dead {
		return
	}
	if h.rep.Cancel(id) == server.CancelDequeued && h.outstanding > 0 {
		h.outstanding--
	}
}

// BestLatencyUs is the deadline-admission oracle: the predicted latency of
// the model's best routable replica.
func (fb *fleetFabric) BestLatencyUs(model int, now sim.Time) float64 {
	return fb.f.router.bestPredictUs(fb.f.router.models[model], now)
}
