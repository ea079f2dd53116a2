package sched

import (
	"math"
	"testing"

	"krisp/internal/kernels"
	"krisp/internal/models"
	"krisp/internal/profile"
	"krisp/internal/reconfig"
)

func planner() *Planner { return NewPlanner(profile.DefaultConfig()) }

func model(t *testing.T, name string) models.Model {
	t.Helper()
	m, ok := models.ByName(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	return m
}

func TestSizeForGrowsWithRate(t *testing.T) {
	p := planner()
	m := model(t, "squeezenet")
	prevCUs, prevInst := 0, 0
	for _, rate := range []float64{500, 2000, 4000, 8000, 16000} {
		cus, inst := p.SizeFor(m, 32, rate)
		if cus < 1 || cus > 60 || inst < 1 {
			t.Fatalf("rate %.0f: cus=%d inst=%d", rate, cus, inst)
		}
		if inst*cus < prevInst*prevCUs {
			t.Errorf("total CUs shrank as rate grew: %d*%d then %d*%d", prevInst, prevCUs, inst, cus)
		}
		// The sized deployment really sustains the rate.
		if got := float64(inst) * p.InstanceRPS(m, 32, cus); got < rate {
			t.Errorf("rate %.0f: sized deployment only sustains %.0f", rate, got)
		}
		prevCUs, prevInst = cus, inst
	}
}

func TestSizeForRespectsQoSFloor(t *testing.T) {
	p := planner()
	for _, name := range []string{"vgg19", "albert", "resnext101"} {
		m := model(t, name)
		cus, inst := p.SizeFor(m, 32, 1)
		if inst != 1 {
			t.Fatalf("%s: instances = %d for trivial rate", name, inst)
		}
		// The sized partition must satisfy the SLO: latency within
		// SLOFactor of the isolated full-GPU latency.
		sweep := profile.New(p.cfg).CUSweep(m.Kernels(32))
		full := float64(sweep[59].Latency)
		if got := float64(sweep[cus-1].Latency); got > p.SLOFactor*full {
			t.Errorf("%s sized to %d CUs: latency %.0f exceeds SLO %.0f",
				name, cus, got, p.SLOFactor*full)
		}
		// And one CU fewer must violate it (minimality) unless already 1.
		if cus > 1 {
			if got := float64(sweep[cus-2].Latency); got <= p.SLOFactor*full {
				t.Errorf("%s: %d CUs already satisfies SLO, sizing not minimal", name, cus-1)
			}
		}
	}
}

func TestSizeForScalesOut(t *testing.T) {
	p := planner()
	m := model(t, "vgg19") // ~400 rps isolated
	_, inst := p.SizeFor(m, 32, 1500)
	if inst < 3 {
		t.Errorf("1500 rps of vgg19 needs >= 3 instances, got %d", inst)
	}
}

func TestPlanPacksDisjointGPUs(t *testing.T) {
	p := planner()
	demands := []Demand{
		{Model: model(t, "albert"), Batch: 32, RatePerSec: 1000},
		{Model: model(t, "squeezenet"), Batch: 32, RatePerSec: 3000},
		{Model: model(t, "resnet152"), Batch: 32, RatePerSec: 3000},
	}
	plan := p.Plan(demands, 4)
	if !plan.Feasible {
		t.Fatalf("plan infeasible: %+v", plan)
	}
	for g := 0; g < plan.GPUs; g++ {
		if got := plan.TotalCUs(g); got > 60 {
			t.Errorf("gpu%d allocated %d CUs (> 60)", g, got)
		}
	}
	for _, m := range []string{"albert", "squeezenet", "resnet152"} {
		if plan.InstancesOf(m) == 0 {
			t.Errorf("%s not placed", m)
		}
	}
}

func TestPlanInfeasibleWhenTooFewGPUs(t *testing.T) {
	p := planner()
	demands := []Demand{
		{Model: model(t, "vgg19"), Batch: 32, RatePerSec: 3000}, // many instances
	}
	plan := p.Plan(demands, 1)
	if plan.Feasible {
		t.Error("3000 rps of vgg19 on one GPU reported feasible")
	}
	// At 8 GPUs it becomes feasible.
	plan = p.Plan(demands, 8)
	if !plan.Feasible {
		t.Error("3000 rps of vgg19 on eight GPUs reported infeasible")
	}
}

func TestPlanDefaultsBatch(t *testing.T) {
	p := planner()
	plan := p.Plan([]Demand{{Model: model(t, "albert"), RatePerSec: 500}}, 1)
	if len(plan.Gpulets) == 0 || plan.Gpulets[0].Batch != models.CalibrationBatch {
		t.Errorf("default batch not applied: %+v", plan.Gpulets)
	}
}

func TestReplanTraceAccountsReloads(t *testing.T) {
	p := planner()
	base := []Demand{
		{Model: model(t, "squeezenet"), Batch: 32},
		{Model: model(t, "albert"), Batch: 32},
	}
	// A diurnal-ish trace: load doubles, then halves.
	trace := [][]float64{
		{1000, 300},
		{4000, 600},
		{8000, 1200},
		{4000, 600},
		{1000, 300},
	}
	plans, report := p.ReplanTrace(base, trace, 4, reconfig.DefaultCosts())
	if len(plans) != 5 {
		t.Fatalf("%d plans, want 5", len(plans))
	}
	if report.Epochs != 5 {
		t.Errorf("epochs = %d", report.Epochs)
	}
	if report.Resizes == 0 {
		t.Error("a varying trace produced no resizes")
	}
	// Each resize costs a full reload process-scoped, nothing
	// kernel-scoped — the Fig. 2 argument at cluster scale.
	want := float64(report.Resizes) * reconfig.DefaultCosts().ReloadTime()
	if report.ProcessScopedReload != want {
		t.Errorf("process-scoped reload = %v, want %v", report.ProcessScopedReload, want)
	}
	if report.KernelScopedReload != 0 {
		t.Errorf("kernel-scoped reload = %v, want 0", report.KernelScopedReload)
	}
}

func TestReplanTraceStableLoadNoResizes(t *testing.T) {
	p := planner()
	base := []Demand{{Model: model(t, "squeezenet"), Batch: 32}}
	trace := [][]float64{{2000}, {2000}, {2000}}
	_, report := p.ReplanTrace(base, trace, 2, reconfig.DefaultCosts())
	if report.Resizes != 0 {
		t.Errorf("stable load produced %d resizes", report.Resizes)
	}
}

func TestReplanTraceValidation(t *testing.T) {
	p := planner()
	defer func() {
		if recover() == nil {
			t.Error("mismatched trace width did not panic")
		}
	}()
	p.ReplanTrace([]Demand{{Model: model(t, "albert")}}, [][]float64{{1, 2}}, 1, reconfig.DefaultCosts())
}

func TestEmptyTrace(t *testing.T) {
	p := planner()
	plans, report := p.ReplanTrace(nil, nil, 1, reconfig.DefaultCosts())
	if plans != nil || report.Epochs != 0 {
		t.Errorf("empty trace: %v %+v", plans, report)
	}
}

func TestSizingZeroRateKeepsWarmInstance(t *testing.T) {
	p := planner()
	m := model(t, "albert")
	for _, rate := range []float64{0, -5} {
		sz := p.Sizing(m, 32, rate)
		if sz.Instances != 1 {
			t.Fatalf("rate %v: instances = %d, want 1 warm instance", rate, sz.Instances)
		}
		if sz.CUs != sz.MinQoSCUs {
			t.Fatalf("rate %v: warm instance sized %d CUs, want the QoS floor %d",
				rate, sz.CUs, sz.MinQoSCUs)
		}
		if sz.PerInstanceRPS <= 0 {
			t.Fatalf("rate %v: non-positive capacity estimate", rate)
		}
	}
}

func TestSizingNonFiniteRatePanics(t *testing.T) {
	p := planner()
	m := model(t, "albert")
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", rate)
				}
			}()
			p.Sizing(m, 32, rate)
		}()
	}
}

func TestSizingMatchesSizeFor(t *testing.T) {
	p := planner()
	m := model(t, "squeezenet")
	for _, rate := range []float64{1, 700, 3000, 9000} {
		cus, inst := p.SizeFor(m, 32, rate)
		sz := p.Sizing(m, 32, rate)
		if cus != sz.CUs || inst != sz.Instances {
			t.Fatalf("rate %v: SizeFor (%d, %d) != Sizing %+v", rate, cus, inst, sz)
		}
		if got := p.InstanceRPS(m, 32, sz.CUs); got != sz.PerInstanceRPS {
			t.Fatalf("rate %v: InstanceRPS %v != Sizing.PerInstanceRPS %v", rate, got, sz.PerInstanceRPS)
		}
	}
}

func TestSLOLatencyIsFactorOfIsolated(t *testing.T) {
	p := planner()
	m := model(t, "resnet152")
	slo := p.SLOLatency(m, 32)
	full := m.Sweep(p.cfg, 32)[p.totalCUs-1].Latency
	if got := float64(slo); got != p.SLOFactor*float64(full) {
		t.Fatalf("SLOLatency = %v, want %v x %v", got, p.SLOFactor, full)
	}
}

// TestPlannerSeparatesSameNameRecipes guards against keying latency
// curves by model name: two Custom recipes share one name, the second with
// twice the kernels, and one planner must size each exactly as a fresh
// planner does.
func TestPlannerSeparatesSameNameRecipes(t *testing.T) {
	sq := model(t, "squeezenet")
	custom := func(copies int) models.Model {
		return models.Custom("same-name", 21, func(batch int) []kernels.Desc {
			var ks []kernels.Desc
			for i := 0; i < copies; i++ {
				ks = append(ks, sq.Kernels(batch)...)
			}
			return ks
		})
	}
	one, two := custom(1), custom(2)
	p := planner()
	for _, m := range []models.Model{one, two} {
		if got, want := p.SLOLatency(m, 32), planner().SLOLatency(m, 32); got != want {
			t.Errorf("%d-kernel recipe: SLOLatency %v from a shared planner, %v from a fresh one",
				len(m.Sequence(32)), got, want)
		}
	}
	if p.SLOLatency(one, 32) == p.SLOLatency(two, 32) {
		t.Fatal("recipes with different kernels got one SLO")
	}
}

func TestReplanTraceZeroRateEpochs(t *testing.T) {
	// A trace that collapses to zero demand must not panic or drop the
	// model: zero-rate epochs keep one warm instance.
	p := planner()
	base := []Demand{{Model: model(t, "squeezenet"), Batch: 32}}
	trace := [][]float64{{8000}, {0}, {8000}}
	plans, report := p.ReplanTrace(base, trace, 2, reconfig.DefaultCosts())
	if len(plans) != 3 {
		t.Fatalf("%d plans, want 3", len(plans))
	}
	for e, plan := range plans {
		if !plan.Feasible {
			t.Fatalf("epoch %d infeasible", e)
		}
		if plan.InstancesOf("squeezenet") < 1 {
			t.Fatalf("epoch %d dropped the model entirely", e)
		}
	}
	if plans[1].InstancesOf("squeezenet") != 1 {
		t.Fatalf("zero-rate epoch kept %d instances, want 1 warm", plans[1].InstancesOf("squeezenet"))
	}
	if report.Resizes == 0 {
		t.Fatal("scaling to zero and back accounted no resizes")
	}
}

func TestReplanTraceMaxGPUsExhaustion(t *testing.T) {
	// When an epoch's demand exceeds the fleet, the plan must come back
	// infeasible (with overflow instances marked unplaced) instead of
	// packing beyond maxGPUs — and later feasible epochs must recover.
	p := planner()
	base := []Demand{{Model: model(t, "vgg19"), Batch: 32}}
	trace := [][]float64{{300}, {20000}, {300}}
	plans, _ := p.ReplanTrace(base, trace, 2, reconfig.DefaultCosts())
	if plans[0].Feasible != true || plans[2].Feasible != true {
		t.Fatal("light epochs reported infeasible")
	}
	if plans[1].Feasible {
		t.Fatal("20000 rps of vgg19 on two GPUs reported feasible")
	}
	unplaced := 0
	for _, g := range plans[1].Gpulets {
		if g.GPU == -1 {
			unplaced++
		} else if g.GPU < 0 || g.GPU >= 2 {
			t.Fatalf("gpulet placed on out-of-range GPU %d", g.GPU)
		}
	}
	if unplaced == 0 {
		t.Fatal("infeasible plan has no unplaced gpulets")
	}
	for g := 0; g < 2; g++ {
		if got := plans[1].TotalCUs(g); got > 60 {
			t.Fatalf("gpu%d oversubscribed to %d CUs", g, got)
		}
	}
}
