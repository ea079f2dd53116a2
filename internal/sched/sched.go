// Package sched implements the prior works' serving-cluster control
// plane: Gpulet-style partition sizing and placement. Given per-model
// request rates, it sizes a spatial partition for each model from its
// profiled latency curve (the "minimum GPU% satisfying the QoS target at
// the offered rate" metric of Gpulet, in CUs), splits models across
// multiple instances when one GPU cannot carry the rate, and packs the
// resulting gpulets onto the fewest devices first-fit-decreasing.
//
// An epoch controller replans on a rate trace and accounts the
// reconfiguration cost of applying each new plan with process-scoped
// instances (shadow reloads) versus kernel-scoped partition instances
// (free) — quantifying the paper's Fig. 2 argument at cluster scale.
package sched

import (
	"fmt"
	"math"
	"sort"

	"krisp/internal/llm"
	"krisp/internal/models"
	"krisp/internal/profile"
	"krisp/internal/reconfig"
	"krisp/internal/sim"
)

// Demand is one model's serving requirement.
type Demand struct {
	Model models.Model
	Batch int
	// RatePerSec is the request rate the deployment must sustain.
	RatePerSec float64
}

// Gpulet is one scheduled instance: a model bound to a CU partition on a
// device.
type Gpulet struct {
	Model string
	Batch int
	CUs   int
	GPU   int
	// ExpectedRPS is the instance's profiled throughput at this size.
	ExpectedRPS float64
}

func (g Gpulet) String() string {
	return fmt.Sprintf("%s[%d CUs @ gpu%d, %.0f rps]", g.Model, g.CUs, g.GPU, g.ExpectedRPS)
}

// Plan is a placement of gpulets onto devices.
type Plan struct {
	Gpulets []Gpulet
	// GPUs is the number of devices used.
	GPUs int
	// Feasible is false when demands could not be placed within MaxGPUs.
	Feasible bool
}

// TotalCUs returns the CUs allocated on device gpu.
func (p Plan) TotalCUs(gpu int) int {
	n := 0
	for _, g := range p.Gpulets {
		if g.GPU == gpu {
			n += g.CUs
		}
	}
	return n
}

// InstancesOf returns the number of instances serving a model.
func (p Plan) InstancesOf(model string) int {
	n := 0
	for _, g := range p.Gpulets {
		if g.Model == model {
			n++
		}
	}
	return n
}

// Planner sizes and places gpulets from profiled latency curves: the
// models' memoized CU sweeps under one profiling configuration.
type Planner struct {
	cfg      profile.Config
	totalCUs int
	// SLOFactor is the tolerated latency multiple of the isolated
	// full-GPU latency (the paper's SLO definition uses 2x).
	SLOFactor float64
}

// NewPlanner creates a planner over the given profiling configuration.
func NewPlanner(cfg profile.Config) *Planner {
	return &Planner{cfg: cfg, totalCUs: cfg.Spec.Topo.TotalCUs(), SLOFactor: 2}
}

// InstanceRPS returns the profiled throughput (requests/second) of one
// instance of the model at an n-CU partition. The cluster placer uses it
// to turn gpulet sizes back into capacity estimates.
func (p *Planner) InstanceRPS(m models.Model, batch, n int) float64 {
	return instanceRPS(m.Sweep(p.cfg, batch), batch, n)
}

// instanceRPS reads one instance's throughput at n CUs off a sweep.
func instanceRPS(s []profile.SweepPoint, batch, n int) float64 {
	lat := float64(s[n-1].Latency) // microseconds per batch
	return float64(batch) / lat * 1e6
}

// SLOLatency returns the model's SLO target: SLOFactor times the isolated
// full-GPU batch latency, the paper's QoS definition. The cluster router
// scores completed requests against it.
func (p *Planner) SLOLatency(m models.Model, batch int) sim.Duration {
	s := m.Sweep(p.cfg, batch)
	return sim.Duration(p.SLOFactor * float64(s[p.totalCUs-1].Latency))
}

// Sizing is one demand's per-instance sizing decision, exported so the
// cluster placer can reason about gpulets without re-deriving curves.
type Sizing struct {
	// CUs is the per-instance partition size; Instances the scale-out
	// count that carries the rate within the SLO.
	CUs, Instances int
	// MinQoSCUs is the floor below which a single instance violates the
	// SLO at any rate.
	MinQoSCUs int
	// PerInstanceRPS is the profiled throughput of one instance at CUs.
	PerInstanceRPS float64
}

// SizeFor returns the smallest per-instance partition and instance count
// that sustains rate within the SLO. The per-instance size never goes
// below the size needed to keep latency within SLOFactor x isolated
// (otherwise the instance violates QoS no matter the count).
//
// Degenerate rates are handled explicitly rather than looping forever: a
// zero or negative rate keeps one warm instance at the QoS floor, and a
// NaN or +Inf rate panics (it would otherwise scale out without bound).
func (p *Planner) SizeFor(m models.Model, batch int, rate float64) (cus, instances int) {
	sz := p.Sizing(m, batch, rate)
	return sz.CUs, sz.Instances
}

// Sizing computes the full sizing decision for one demand; see SizeFor.
func (p *Planner) Sizing(m models.Model, batch int, rate float64) Sizing {
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("sched: non-finite rate %v for model %s", rate, m.Name))
	}
	s := m.Sweep(p.cfg, batch)
	fullLat := float64(s[p.totalCUs-1].Latency)
	// Minimum CUs that keeps latency within the SLO.
	minQoS := p.totalCUs
	for n := 1; n <= p.totalCUs; n++ {
		if float64(s[n-1].Latency) <= p.SLOFactor*fullLat {
			minQoS = n
			break
		}
	}
	if rate <= 0 {
		// No offered load: keep one warm instance at the QoS floor.
		return Sizing{CUs: minQoS, Instances: 1, MinQoSCUs: minQoS,
			PerInstanceRPS: instanceRPS(s, batch, minQoS)}
	}
	// Scale out until the per-instance rate share is achievable, then
	// pick the smallest size that carries the share.
	for instances := 1; ; instances++ {
		share := rate / float64(instances)
		if instanceRPS(s, batch, p.totalCUs) < share {
			continue // even a whole GPU cannot carry the share
		}
		for n := minQoS; n <= p.totalCUs; n++ {
			if rps := instanceRPS(s, batch, n); rps >= share {
				return Sizing{CUs: n, Instances: instances, MinQoSCUs: minQoS, PerInstanceRPS: rps}
			}
		}
	}
}

// TotalCUs returns the per-device CU count the planner sizes against.
func (p *Planner) TotalCUs() int { return p.totalCUs }

// LLMSizing is the per-phase right-sizing decision for one autoregressive
// model: separate profiled partition sizes for the prefill and decode
// phases, the single shared size a phase-blind system would have to
// provision (the max of the two, since either phase violates its latency
// knee below its own size), and the capacity estimates the autoscaler
// turns rates into instance counts with.
type LLMSizing struct {
	// PrefillCUs / DecodeCUs are the profiled per-phase right-sizes.
	PrefillCUs, DecodeCUs int
	// SharedCUs is the phase-blind alternative: one size that keeps both
	// phases at their knees.
	SharedCUs int
	// PrefillLatency is one prompt pass at PrefillCUs; DecodeStepLatency
	// one token step of a full continuous batch at DecodeCUs.
	PrefillLatency, DecodeStepLatency sim.Duration
	// PrefillRPS is prompts/second of one prefill-sized instance;
	// DecodeTokPS generated tokens/second of one decode-sized instance.
	PrefillRPS, DecodeTokPS float64
}

// Instances converts a sequence rate into per-phase instance counts: how
// many prefill-sized and decode-sized gpulets carry rate sequences/second
// whose outputs average avgOutput tokens.
func (s LLMSizing) Instances(rate float64, avgOutput int) (prefill, decode int) {
	if avgOutput < 1 {
		avgOutput = 1
	}
	prefill, decode = 1, 1
	if rate > 0 && s.PrefillRPS > 0 {
		prefill = int(math.Ceil(rate / s.PrefillRPS))
	}
	if rate > 0 && s.DecodeTokPS > 0 {
		decode = int(math.Ceil(rate * float64(avgOutput) / s.DecodeTokPS))
	}
	if prefill < 1 {
		prefill = 1
	}
	if decode < 1 {
		decode = 1
	}
	return prefill, decode
}

// LLMSizing profiles the model's two phases at representative lengths —
// a prefill over avgPrompt tokens and a decode step of maxSeqs sequences
// at their mean resident context — and right-sizes each independently.
func (p *Planner) LLMSizing(m llm.Model, avgPrompt, avgOutput, maxSeqs int) LLMSizing {
	if avgPrompt < 1 {
		avgPrompt = 1
	}
	if avgOutput < 1 {
		avgOutput = 1
	}
	if maxSeqs < 1 {
		maxSeqs = 8
	}
	prof := profile.New(p.cfg)
	pre := m.PrefillKernels(avgPrompt)
	dec := m.DecodeKernels(maxSeqs, maxSeqs*(avgPrompt+avgOutput/2))
	sz := LLMSizing{
		PrefillCUs: prof.ModelRightSize(pre),
		DecodeCUs:  prof.ModelRightSize(dec),
	}
	sz.SharedCUs = sz.PrefillCUs
	if sz.DecodeCUs > sz.SharedCUs {
		sz.SharedCUs = sz.DecodeCUs
	}
	sz.PrefillLatency = prof.ModelLatency(pre, sz.PrefillCUs)
	sz.DecodeStepLatency = prof.ModelLatency(dec, sz.DecodeCUs)
	if sz.PrefillLatency > 0 {
		sz.PrefillRPS = 1e6 / float64(sz.PrefillLatency)
	}
	if sz.DecodeStepLatency > 0 {
		sz.DecodeTokPS = float64(maxSeqs) * 1e6 / float64(sz.DecodeStepLatency)
	}
	return sz
}

// Plan sizes every demand and packs the gpulets first-fit-decreasing onto
// at most maxGPUs devices. An infeasible demand set returns a partial plan
// with Feasible=false.
func (p *Planner) Plan(demands []Demand, maxGPUs int) Plan {
	var all []Gpulet
	for _, d := range demands {
		batch := d.Batch
		if batch < 1 {
			batch = models.CalibrationBatch
		}
		cus, instances := p.SizeFor(d.Model, batch, d.RatePerSec)
		for i := 0; i < instances; i++ {
			all = append(all, Gpulet{
				Model:       d.Model.Name,
				Batch:       batch,
				CUs:         cus,
				ExpectedRPS: p.InstanceRPS(d.Model, batch, cus),
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].CUs > all[j].CUs })

	free := make([]int, 0, maxGPUs)
	plan := Plan{Feasible: true}
	for i := range all {
		placed := false
		for g := range free {
			if free[g] >= all[i].CUs {
				free[g] -= all[i].CUs
				all[i].GPU = g
				placed = true
				break
			}
		}
		if !placed && len(free) < maxGPUs {
			free = append(free, p.totalCUs-all[i].CUs)
			all[i].GPU = len(free) - 1
			placed = true
		}
		if !placed {
			plan.Feasible = false
			all[i].GPU = -1
		}
	}
	plan.Gpulets = all
	plan.GPUs = len(free)
	return plan
}

// EpochReport accounts applying a sequence of plans.
type EpochReport struct {
	Epochs int
	// Resizes counts gpulet size/placement changes between epochs.
	Resizes int
	// ProcessScopedReload is the cumulative background reload time paid
	// with shadow instances (one reload per resize).
	ProcessScopedReload sim.Duration
	// KernelScopedReload is the equivalent with kernel-scoped partition
	// instances: zero — the next request simply uses the new size.
	KernelScopedReload sim.Duration
}

// ReplanTrace runs the epoch controller over a rate trace: one rate per
// epoch per demand (all trace slices must have equal length). It returns
// the plans and the reconfiguration accounting.
func (p *Planner) ReplanTrace(base []Demand, trace [][]float64, maxGPUs int, costs reconfig.Costs) ([]Plan, EpochReport) {
	if len(trace) == 0 {
		return nil, EpochReport{}
	}
	for _, rates := range trace {
		if len(rates) != len(base) {
			panic("sched: trace width does not match demands")
		}
	}
	plans := make([]Plan, 0, len(trace))
	report := EpochReport{Epochs: len(trace)}
	var prev Plan
	for e, rates := range trace {
		ds := make([]Demand, len(base))
		copy(ds, base)
		for i := range ds {
			ds[i].RatePerSec = rates[i]
		}
		plan := p.Plan(ds, maxGPUs)
		if e > 0 {
			report.Resizes += diffPlans(prev, plan)
		}
		plans = append(plans, plan)
		prev = plan
	}
	report.ProcessScopedReload = sim.Duration(report.Resizes) * costs.ReloadTime()
	return plans, report
}

// diffPlans counts instances whose (model, CUs, GPU) changed — each one is
// a reconfiguration a process-scoped system must reload for.
func diffPlans(a, b Plan) int {
	count := func(p Plan) map[string]int {
		m := make(map[string]int)
		for _, g := range p.Gpulets {
			m[fmt.Sprintf("%s/%d/%d", g.Model, g.CUs, g.GPU)]++
		}
		return m
	}
	am, bm := count(a), count(b)
	changes := 0
	for k, n := range bm {
		if n > am[k] {
			changes += n - am[k]
		}
	}
	return changes
}
