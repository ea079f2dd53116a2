package cluster

import (
	"math"

	"krisp/internal/cluster/workload"
	"krisp/internal/sched"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// autoscaler is the epoch-driven control loop: at every epoch boundary it
// forecasts each model's rate over the coming epoch, asks the placer for a
// fresh placement over the live slots, and applies the diff — spawning,
// resizing, and draining replicas, and booking the reconfiguration bill.
type autoscaler struct {
	placer   *placer
	epoch    sim.Duration
	headroom float64
	next     sim.Time
	epochs   int

	// Per-epoch scratch, reused so a warm replan allocates nothing.
	demands  []sched.Demand
	llmInsts []llmInst
	slots    []slot
}

// maybeReplan runs the control loop when now crosses the epoch boundary.
func (a *autoscaler) maybeReplan(f *Fleet, now sim.Time) {
	if now < a.next {
		return
	}
	a.next = now + a.epoch
	a.epochs++

	// Forecast: the mean offered rate over the epoch ahead, padded by the
	// headroom factor so the fleet keeps slack for Poisson bursts and for
	// the router to steer around slow replicas. A production autoscaler
	// would predict from history; the simulation forecasts from the
	// generator itself, which isolates placement behaviour from predictor
	// quality.
	demands, llmInsts := a.demands[:0], a.llmInsts[:0]
	for i, w := range f.cfg.Workloads {
		rate := a.headroom * workload.MeanRate(w.Gen, now, now+a.epoch)
		if lm := f.router.models[i].llm; lm != nil {
			llmInsts = appendLLMInsts(llmInsts, w.Model.Name, lm, rate)
			continue
		}
		demands = append(demands, sched.Demand{
			Model:      w.Model,
			Batch:      w.Batch,
			RatePerSec: rate,
		})
	}

	// Slots are interleaved gpu-major (node0/gpu0, node1/gpu0, ..., then
	// gpu1) so the placer's worst-fit tie-breaking walks across nodes
	// before doubling up on one — better fault isolation and a more
	// balanced fleet than filling node 0 to the brim first.
	maxGPUs := 0
	for _, n := range f.nodes {
		if n.up && n.node.NumGPUs() > maxGPUs {
			maxGPUs = n.node.NumGPUs()
		}
	}
	slots := a.slots[:0]
	for g := 0; g < maxGPUs; g++ {
		for _, n := range f.nodes {
			if n.up && g < n.node.NumGPUs() {
				slots = append(slots, slot{node: n.id, gpu: g})
			}
		}
	}
	a.demands, a.llmInsts, a.slots = demands, llmInsts, slots

	targets, unplaced := a.placer.place(demands, llmInsts, slots)
	f.res.Unplaced += unplaced

	acts := a.placer.diff(f.handles, targets)
	proc, kern := reconfigBill(acts, f.cfg.Costs)
	f.res.ProcessScopedReload += proc
	f.res.KernelScopedReload += kern

	for _, ra := range acts.resize {
		f.drainReplica(ra.old)
		// Kernel-scoped resize: the replacement serves immediately — the
		// next kernel simply launches with the new partition budget.
		f.spawnReplica(ra.to, now)
		f.res.Resizes++
		f.obs.onScale(now, "resize", ra.old.id)
	}
	for _, t := range acts.migrate {
		readyAt := now
		if a.epochs > 1 {
			// Initial placement is a cold deploy (weights staged before
			// traffic); later moves pay the model load before serving.
			readyAt = now + f.cfg.Costs.ModelLoad
		}
		f.spawnReplica(t, readyAt)
		f.res.Migrations++
		f.obs.onScale(now, "migrate", f.handleSeq-1) // the just-spawned handle
	}
	for _, h := range acts.drain {
		f.drainReplica(h)
		f.res.Drains++
		f.obs.onScale(now, "drain", h.id)
	}
}

// appendLLMInsts expands one LLM workload's forecast into pre-sized
// gpulets. Disaggregated fleets split into prefill instances (sized by
// prefill throughput) and decode instances (sized by token throughput),
// each at its phase's right-sized partition when PerPhase is set — the
// per-phase knees differ by 5x or more, so decode replicas pack several
// per GPU where a shared size allows one. Mixed fleets run both phases in
// every replica and are sized by full-sequence turnaround.
func appendLLMInsts(insts []llmInst, model string, lm *llmModelState, rate float64) []llmInst {
	sz := lm.sizing
	batch := lm.spec.MaxSeqs
	if lm.spec.Disaggregate {
		pcus, dcus := sz.SharedCUs, sz.SharedCUs
		if lm.spec.PerPhase {
			pcus, dcus = sz.PrefillCUs, sz.DecodeCUs
		}
		pre, dec := sz.Instances(rate, lm.meanOutput)
		for i := 0; i < pre; i++ {
			insts = append(insts, llmInst{model: model, batch: batch, cus: pcus, role: server.LLMRolePrefill})
		}
		for i := 0; i < dec; i++ {
			insts = append(insts, llmInst{model: model, batch: batch, cus: dcus, role: server.LLMRoleDecode})
		}
		return insts
	}
	seqUs := float64(sz.PrefillLatency) + float64(lm.meanOutput)*float64(sz.DecodeStepLatency)
	n := 1
	if rate > 0 && seqUs > 0 {
		seqPS := float64(batch) * 1e6 / seqUs
		if n = int(math.Ceil(rate / seqPS)); n < 1 {
			n = 1
		}
	}
	for i := 0; i < n; i++ {
		insts = append(insts, llmInst{model: model, batch: batch, cus: sz.SharedCUs})
	}
	return insts
}
