package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"krisp/internal/sched"
	"krisp/internal/server"
)

// diffReference is the map-based diff the sort-merge one replaced, kept as
// its oracle: group live replicas and targets by (node, gpu, model, role)
// in maps, sort each group by size, pair equal sizes by linear search,
// pair the leftovers as resizes, and sort the bill at the end because map
// iteration order is random.
func diffReference(current []*replicaHandle, targets []target) diffActions {
	type key struct {
		node, gpu int
		model     string
		role      server.LLMRole
	}
	curByKey := make(map[key][]*replicaHandle)
	for _, h := range current {
		if h.dead || h.draining {
			continue
		}
		k := key{h.node, h.gpu, h.model, h.role}
		curByKey[k] = append(curByKey[k], h)
	}
	tgtByKey := make(map[key][]target)
	for _, t := range targets {
		k := key{t.node, t.gpu, t.model, t.role}
		tgtByKey[k] = append(tgtByKey[k], t)
	}

	var acts diffActions
	for k, tgts := range tgtByKey {
		curs := curByKey[k]
		delete(curByKey, k)
		sort.SliceStable(tgts, func(i, j int) bool { return tgts[i].cus < tgts[j].cus })
		sort.SliceStable(curs, func(i, j int) bool {
			if curs[i].cus != curs[j].cus {
				return curs[i].cus < curs[j].cus
			}
			return curs[i].id < curs[j].id
		})
		usedCur := make([]bool, len(curs))
		usedTgt := make([]bool, len(tgts))
		for ti, t := range tgts {
			for ci, c := range curs {
				if !usedCur[ci] && c.cus == t.cus {
					usedCur[ci] = true
					usedTgt[ti] = true
					break
				}
			}
		}
		var freeCur []*replicaHandle
		for ci, c := range curs {
			if !usedCur[ci] {
				freeCur = append(freeCur, c)
			}
		}
		for ti, t := range tgts {
			if usedTgt[ti] {
				continue
			}
			if len(freeCur) > 0 {
				acts.resize = append(acts.resize, resizeAction{old: freeCur[0], to: t})
				freeCur = freeCur[1:]
			} else {
				acts.migrate = append(acts.migrate, t)
			}
		}
		acts.drain = append(acts.drain, freeCur...)
	}
	for _, curs := range curByKey {
		acts.drain = append(acts.drain, curs...)
	}
	sort.SliceStable(acts.drain, func(i, j int) bool { return acts.drain[i].id < acts.drain[j].id })
	sort.SliceStable(acts.resize, func(i, j int) bool { return acts.resize[i].old.id < acts.resize[j].old.id })
	sort.SliceStable(acts.migrate, func(i, j int) bool {
		a, b := acts.migrate[i], acts.migrate[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.gpu != b.gpu {
			return a.gpu < b.gpu
		}
		if a.model != b.model {
			return a.model < b.model
		}
		if a.role != b.role {
			return a.role < b.role
		}
		return a.cus < b.cus
	})
	return acts
}

// randomDiffInput draws a live replica set and a placement over a small
// key space, so groups collide, sizes repeat within a group, and some
// groups exist on one side only. Replicas are dead or draining at random
// and ids ascend, as in Fleet.handles. Targets carry a distinct batch as a
// tag, so an order change among equal-key, equal-size targets shows.
func randomDiffInput(rng *rand.Rand) ([]*replicaHandle, []target) {
	key := func() gpuletKey {
		return gpuletKey{
			slot:  slot{node: rng.Intn(2), gpu: rng.Intn(2)},
			model: []string{"a", "b"}[rng.Intn(2)],
			role:  server.LLMRole(rng.Intn(3)),
		}
	}
	sizes := []int{8, 12, 12, 20, 30}
	current := make([]*replicaHandle, rng.Intn(32))
	for i := range current {
		current[i] = &replicaHandle{
			id:        i,
			gpuletKey: key(),
			cus:       sizes[rng.Intn(len(sizes))],
			dead:      rng.Intn(8) == 0,
			draining:  rng.Intn(8) == 0,
		}
	}
	targets := make([]target, rng.Intn(32))
	for i := range targets {
		targets[i] = target{gpuletKey: key(), batch: i, cus: sizes[rng.Intn(len(sizes))]}
	}
	return current, targets
}

// FuzzDiff checks the sort-merge diff against diffReference: on random
// replica sets and placements both must produce the same resize, migrate
// and drain lists, element for element. The same placer diffs every input
// of a seed, so stale scratch from a previous call would also show.
func FuzzDiff(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := &placer{}
		for round := 0; round < 4; round++ {
			current, targets := randomDiffInput(rng)
			want := fmt.Sprint(describeActs(diffReference(current, targets)))
			if got := fmt.Sprint(describeActs(p.diff(current, targets))); got != want {
				t.Fatalf("seed %d round %d:\n got %s\nwant %s", seed, round, got, want)
			}
		}
	})
}

// describeActs renders a bill with replicas by id, so two bills over the
// same handles compare as strings.
func describeActs(a diffActions) []string {
	var out []string
	for _, r := range a.resize {
		out = append(out, fmt.Sprintf("resize %d->%+v", r.old.id, r.to))
	}
	for _, t := range a.migrate {
		out = append(out, fmt.Sprintf("migrate %+v", t))
	}
	for _, h := range a.drain {
		out = append(out, fmt.Sprintf("drain %d", h.id))
	}
	return out
}

// TestReplanZeroAlloc guards the epoch replan's steady state: on a warm
// fleet, place plus diff allocate nothing. The forecast alternates
// between the last epoch's and three times its rates, so the cycles bill
// resizes, migrations and drains against the live replica set.
func TestReplanZeroAlloc(t *testing.T) {
	rackLoss := chaosConfig(t)
	applyChaos(t, &rackLoss, "rack-loss")
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"classic", baseConfig(t)},
		{"rack-loss", rackLoss},
		{"llm-mixed", llmBaseConfig()},
		{"llm-disagg", llmDisaggConfig()},
	} {
		f := New(tc.cfg)
		f.Run()
		a := f.scaler
		demands := append([]sched.Demand(nil), a.demands...)
		insts := append([]llmInst(nil), a.llmInsts...)
		scale, billed := 3, 0
		cycle := func() {
			scale = 4 - scale // 1, 3, 1, ...
			for i := range a.demands {
				a.demands[i].RatePerSec = demands[i].RatePerSec * float64(scale)
			}
			a.llmInsts = a.llmInsts[:0]
			for _, in := range insts {
				for k := 0; k < scale; k++ {
					a.llmInsts = append(a.llmInsts, in)
				}
			}
			targets, _ := a.placer.place(a.demands, a.llmInsts, a.slots)
			acts := a.placer.diff(f.handles, targets)
			billed += len(acts.resize) + len(acts.migrate) + len(acts.drain)
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if billed == 0 {
			t.Fatalf("%s: replans at 1x and 3x the rates billed nothing", tc.name)
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s: place+diff allocate %.2f/op on a warm fleet, want 0", tc.name, allocs)
		}
	}
}
