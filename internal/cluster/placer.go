package cluster

import (
	"cmp"
	"slices"
	"strings"

	"krisp/internal/reconfig"
	"krisp/internal/sched"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// slot is one placeable GPU: a device on a currently-up node.
type slot struct {
	node, gpu int
}

// gpuletKey is where a gpulet runs and what it serves. diff matches live
// replicas against targets within groups of equal keys.
type gpuletKey struct {
	slot
	model string
	// role is the LLM serving role (LLMRoleMixed for classic models and
	// non-disaggregated fleets).
	role server.LLMRole
}

func (a gpuletKey) compare(b gpuletKey) int {
	return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.gpu, b.gpu),
		strings.Compare(a.model, b.model), cmp.Compare(a.role, b.role))
}

// target is one desired gpulet after an epoch replan.
type target struct {
	gpuletKey
	batch int
	cus   int
}

// compareTargets orders targets by (key, cus): diff's group order, and
// the order migrations apply in.
func compareTargets(a, b target) int {
	return cmp.Or(a.compare(b.gpuletKey), cmp.Compare(a.cus, b.cus))
}

// llmInst is one pre-sized LLM gpulet the autoscaler asks the placer to
// spread: the planner's per-phase sizing already fixed its CU budget, so
// the placer only packs it.
type llmInst struct {
	model string
	batch int
	cus   int
	role  server.LLMRole
}

// placer turns demand forecasts into gpulet placements. Sizing comes from
// sched.Planner (the Gpulet-style control plane: CUs per instance and
// instance count for each demand), but packing is the fleet's own: the
// single-server planner bin-packs into the fewest GPUs, which is wrong at
// cluster scale — co-locating every replica on one device means a single
// node fault strands all of a model's capacity. Dead nodes simply
// contribute no slots, which is how a crashed node's replicas get
// re-placed elsewhere at the next epoch.
//
// The placer owns its scratch, so a warm replan allocates nothing: what
// place and diff return aliases it and is valid until the next call.
type placer struct {
	planner *sched.Planner

	insts  []llmInst
	free   []int
	placed []target
	live   []*replicaHandle
	tgts   []target
	acts   diffActions
}

// place sizes every demand at the forecast rates and spreads the resulting
// gpulets across the available slots worst-fit-decreasing: largest
// instances first, each onto the slot with the most free CUs (ties break
// toward the lowest slot index, and slots are interleaved gpu-major by the
// caller, so equal-freedom ties walk across nodes before doubling up).
// It returns the placed targets and the count of gpulets that did not fit
// (unplaced demand the router will shed).
func (p *placer) place(demands []sched.Demand, llmInsts []llmInst, slots []slot) (placed []target, unplaced int) {
	placed = p.placed[:0]
	if len(slots) == 0 || (len(demands) == 0 && len(llmInsts) == 0) {
		return placed, 0
	}
	insts := append(p.insts[:0], llmInsts...)
	for _, d := range demands {
		s := p.planner.Sizing(d.Model, d.Batch, d.RatePerSec)
		for i := 0; i < s.Instances; i++ {
			insts = append(insts, llmInst{model: d.Model.Name, batch: d.Batch, cus: s.CUs})
		}
	}
	slices.SortStableFunc(insts, func(a, b llmInst) int {
		return cmp.Or(cmp.Compare(b.cus, a.cus), strings.Compare(a.model, b.model), cmp.Compare(a.role, b.role))
	})

	free := p.free[:0]
	for range slots {
		free = append(free, p.planner.TotalCUs())
	}
	for _, in := range insts {
		best := -1
		for si := range slots {
			if free[si] >= in.cus && (best < 0 || free[si] > free[best]) {
				best = si
			}
		}
		if best < 0 {
			unplaced++
			continue
		}
		free[best] -= in.cus
		placed = append(placed, target{
			gpuletKey: gpuletKey{slot: slots[best], model: in.model, role: in.role},
			batch:     in.batch,
			cus:       in.cus,
		})
	}
	p.insts, p.free, p.placed = insts, free, placed
	return placed, unplaced
}

// diffActions is the migration bill of applying one epoch's placement.
type diffActions struct {
	resize  []resizeAction // drain old, spawn same slot at new size (free)
	migrate []target       // spawn on a new slot (model load paid)
	drain   []*replicaHandle
}

type resizeAction struct {
	old *replicaHandle
	to  target
}

// diff matches the current live replica set against the placed targets.
// Matching is per (node, gpu, model, role) group: equal-size pairs are
// kept, unequal pairs become in-place resizes (free for kernel-scoped
// instances — the next kernel simply right-sizes into the new budget),
// unmatched targets are migrations (the model must load onto that GPU),
// and unmatched replicas drain.
//
// It is a sort-merge: live replicas sorted by (key, cus, id) and targets
// stably by (key, cus) are walked group by group in key order. Within a
// group both sides ascend in size, so exact sizes pair first by two
// pointers, and the leftovers pair up in order as resizes.
func (p *placer) diff(current []*replicaHandle, targets []target) diffActions {
	live := p.live[:0]
	for _, h := range current {
		if !h.dead && !h.draining {
			live = append(live, h)
		}
	}
	slices.SortFunc(live, func(a, b *replicaHandle) int {
		return cmp.Or(a.compare(b.gpuletKey), cmp.Compare(a.cus, b.cus), cmp.Compare(a.id, b.id))
	})
	tgts := append(p.tgts[:0], targets...)
	slices.SortStableFunc(tgts, compareTargets)

	acts := diffActions{resize: p.acts.resize[:0], migrate: p.acts.migrate[:0], drain: p.acts.drain[:0]}
	for i, j := 0, 0; i < len(live) || j < len(tgts); {
		var k gpuletKey
		if j == len(tgts) || (i < len(live) && live[i].compare(tgts[j].gpuletKey) <= 0) {
			k = live[i].gpuletKey
		} else {
			k = tgts[j].gpuletKey
		}
		ie, je := i, j
		for ie < len(live) && live[ie].gpuletKey == k {
			ie++
		}
		for je < len(tgts) && tgts[je].gpuletKey == k {
			je++
		}
		acts = match(acts, live[i:ie], tgts[j:je])
		i, j = ie, je
	}
	// Groups ran in key order and each group's leftover targets in size
	// order, so migrate is already in (key, cus) order.
	slices.SortFunc(acts.drain, func(a, b *replicaHandle) int { return cmp.Compare(a.id, b.id) })
	slices.SortFunc(acts.resize, func(a, b resizeAction) int { return cmp.Compare(a.old.id, b.old.id) })
	p.live, p.tgts, p.acts = live, tgts, acts
	return acts
}

// match bills one group's replicas and targets, both ascending in size.
// It moves each side's unmatched entries, in order, to the front of its
// slice (diff's scratch) and pairs them up from there.
func match(acts diffActions, curs []*replicaHandle, tgts []target) diffActions {
	a, b, spare, pending := 0, 0, 0, 0
	for a < len(curs) && b < len(tgts) {
		switch {
		case curs[a].cus == tgts[b].cus: // kept as is
			a++
			b++
		case curs[a].cus < tgts[b].cus:
			curs[spare] = curs[a]
			spare, a = spare+1, a+1
		default:
			tgts[pending] = tgts[b]
			pending, b = pending+1, b+1
		}
	}
	spare += copy(curs[spare:], curs[a:])
	pending += copy(tgts[pending:], tgts[b:])
	n := min(spare, pending)
	for x := 0; x < n; x++ {
		acts.resize = append(acts.resize, resizeAction{old: curs[x], to: tgts[x]})
	}
	acts.migrate = append(acts.migrate, tgts[n:pending]...)
	acts.drain = append(acts.drain, curs[n:spare]...)
	return acts
}

// reconfigBill accounts one epoch's actions under both reconfiguration
// regimes: process-scoped instances reload for every resize and migration;
// kernel-scoped instances resize for free and only pay the model load on
// migrations (the paper's Fig. 2 argument, now at fleet scale).
func reconfigBill(acts diffActions, costs reconfig.Costs) (processScoped, kernelScoped sim.Duration) {
	n := len(acts.resize) + len(acts.migrate)
	processScoped = sim.Duration(n) * costs.ReloadTime()
	kernelScoped = sim.Duration(len(acts.migrate)) * costs.ModelLoad
	return processScoped, kernelScoped
}
