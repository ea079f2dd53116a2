package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"krisp/internal/cluster"
	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/llm"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/profile"
	"krisp/internal/reconfig"
	"krisp/internal/server"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// benchWorkload is one named input of the benchmark. Every workload reaches
// the simulator only through its public entry points: cluster.New and
// Fleet.Run, server.BuildDB and server.Run, and Profiler.ModelRightSize.
type benchWorkload struct {
	name string
	why  string
	// runsPerSecond sizes an invocation: --seconds s runs
	// round(s*runsPerSecond) simulations, so both sides of a comparison
	// simulate exactly the same runs whatever their speed.
	runsPerSecond float64
	// passLen is how many runs cover every input once (one run for a
	// fleet, every cell for the grid). Children split the runs at pass
	// boundaries, and the canonical digest covers the first pass.
	passLen int
	// setup builds what every run shares. It is timed cold, as setup_s.
	setup func(seed int64) (runner, error)
}

// runner executes the runs of one set-up. Run i simulates with seed base+i;
// hub, when non-nil, is attached as the run's telemetry.
type runner interface {
	run(i int, hub *telemetry.Hub) result
}

// result is one run's raw output. outcome checks it and reduces it; the
// benchmark calls it outside the timed region.
type result interface {
	outcome() (outcome, error)
}

// outcome is what one run reports about the modelled system: the inputs to
// the sim_* metrics, the work counts taken from result fields, and a digest
// of the canonical result.
type outcome struct {
	VS          float64 // virtual seconds simulated
	Completed   int
	GoodReqs    int     // fleets: completed within SLO; grid: completed in the window
	GoodWindowS float64 // the virtual seconds GoodReqs were counted over
	BadNum      int     // fleets: BadRequests; grid: cells over 2x isolated p95
	BadDen      int     // fleets: arrivals; grid: cells
	EnergyJ     float64
	EnergyReqs  int
	Tokens      int
	Arrivals    int
	Routed      int
	Migrations  int
	Preemptions int
	Handoffs    int
	HandoffUs   float64
	Admitted    uint64
	Shed        uint64
	Hedges      uint64
	HedgeWins   uint64
	Digest      uint64
	lat         []float64 // virtual per-request (fleet) or per-batch (grid) latencies, us
}

var workloads = []benchWorkload{
	{
		name: "fleet-dense",
		why: "16x2 MI50 fleet, squeezenet at a constant 400 req/s per node, no gateway or telemetry: " +
			"node-local DES dominates and the idle skip stays on",
		runsPerSecond: 9,
		passLen:       1,
		setup:         fleetSetup(denseConfig),
	},
	{
		name: "fleet-observed",
		why: "production config: diurnal two-model mix, two tenants, gateway, telemetry, 1% journeys " +
			"and burn monitors, so the control plane runs every tick",
		runsPerSecond: 5.5,
		passLen:       1,
		setup:         fleetSetup(observedConfig),
	},
	{
		name: "llm-disagg",
		why: "disaggregated llm-small fleet with per-phase sizing and a tight KV budget: " +
			"the token loop with admission, preemption and handoffs instead of the batch loop",
		runsPerSecond: 15,
		passLen:       1,
		setup:         fleetSetup(llmConfig),
	},
	{
		name: "paper-grid",
		why: "the paper's closed-loop max-load server over 4 models x 3 policies x {2,4} workers: " +
			"KRISP-I per-kernel right-sizing under contention, no cluster layer",
		runsPerSecond: 36,
		passLen:       len(gridCells()),
		setup:         gridSetup,
	},
}

func workloadByName(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---------------------------------------------------------------------------
// Fleets.

// fleetRunLength is the virtual length of one fleet run.
const fleetRunLength = 2 * sim.Second

// fleetCosts compresses reconfiguration to the run's timescale, as the
// fleet CLI does by default; production-scale reloads would outlast a run.
func fleetCosts() reconfig.Costs {
	return reconfig.Costs{
		PartitionSetup: 2 * sim.Millisecond,
		ProcessStart:   3 * sim.Millisecond,
		ModelLoad:      10 * sim.Millisecond,
		SwapDowntime:   55 * sim.Microsecond,
	}
}

func fleetBase(nodes int, seed int64) cluster.Config {
	return cluster.Config{
		Nodes:       nodes,
		GPUsPerNode: 2,
		Policy:      cluster.SLOAware,
		Tick:        2 * sim.Millisecond,
		Epoch:       50 * sim.Millisecond,
		Seed:        seed,
		Costs:       fleetCosts(),
	}
}

func mustModel(name string) models.Model {
	m, ok := models.ByName(name)
	if !ok {
		panic("benchmark: unknown model " + name)
	}
	return m
}

func denseConfig(seed int64, hub *telemetry.Hub) cluster.Config {
	cfg := fleetBase(16, seed)
	cfg.Workloads = []cluster.Workload{
		{Model: mustModel("squeezenet"), Batch: 8, Gen: workload.Constant{RatePerSec: 400 * 16}},
	}
	cfg.Telemetry = hub
	return cfg
}

func observedConfig(seed int64, hub *telemetry.Hub) cluster.Config {
	cfg := fleetBase(16, seed)
	period := sim.Duration(sim.Second)
	cfg.Workloads = []cluster.Workload{
		{Model: mustModel("squeezenet"), Batch: 8, Gen: workload.Diurnal{Trough: 20 * 16, Peak: 400 * 16, Period: period}},
		{Model: mustModel("mobilenet"), Batch: 8, Gen: workload.Diurnal{Trough: 20 * 16, Peak: 160 * 16, Period: period}},
	}
	cfg.Tenants = []workload.TenantShare{{ID: 0, Weight: 1}, {ID: 1, Weight: 2}}
	cfg.Gateway = &gateway.Config{}
	cfg.Obs = &cluster.Observability{SampleEvery: 100, Monitors: true}
	// Telemetry is part of this workload's configuration, so every run gets
	// a registry even when the benchmark is not counting.
	if hub == nil {
		hub = telemetry.NewHub(false)
	}
	cfg.Telemetry = hub
	return cfg
}

func llmConfig(seed int64, hub *telemetry.Hub) cluster.Config {
	cfg := fleetBase(4, seed)
	cfg.Workloads = []cluster.Workload{{
		Gen: workload.Constant{RatePerSec: 1000},
		LLM: &cluster.LLMWorkload{
			Model:        llm.Small(),
			Lengths:      workload.LengthDist{PromptMin: 32, PromptMax: 512, OutputMin: 16, OutputMax: 128},
			Disaggregate: true,
			PerPhase:     true,
			KVBudget:     1e8,
		},
	}}
	cfg.Telemetry = hub
	return cfg
}

type fleetRunner struct {
	seed     int64
	duration sim.Duration
	config   func(seed int64, hub *telemetry.Hub) cluster.Config
}

// fleetSetup's cold set-up is one cluster.New: the planner's SLO sweep (or
// per-phase LLM sizing) that every fleet pays before its first tick.
func fleetSetup(config func(int64, *telemetry.Hub) cluster.Config) func(int64) (runner, error) {
	return func(seed int64) (runner, error) {
		cluster.New(config(seed, nil))
		return &fleetRunner{seed: seed, duration: fleetRunLength, config: config}, nil
	}
}

func (r *fleetRunner) run(i int, hub *telemetry.Hub) result {
	cfg := r.config(r.seed+int64(i), hub)
	cfg.Duration = r.duration
	return fleetResult{cluster.Run(cfg)}
}

type fleetResult struct{ *cluster.Result }

func (res fleetResult) outcome() (outcome, error) {
	r := res.Result
	if r.Arrivals != r.Routed+r.Rejected {
		return outcome{}, fmt.Errorf("fleet: arrivals %d != routed %d + rejected %d", r.Arrivals, r.Routed, r.Rejected)
	}
	if r.Latency.Len() != r.Completed || r.Completed > r.Routed {
		return outcome{}, fmt.Errorf("fleet: %d latency samples, %d completed, %d routed", r.Latency.Len(), r.Completed, r.Routed)
	}
	if r.Completed == 0 {
		return outcome{}, fmt.Errorf("fleet: no request completed")
	}
	o := outcome{
		VS:          float64(r.Duration) / float64(sim.Second),
		Completed:   r.Completed,
		GoodReqs:    r.Completed - r.SLOViolations,
		GoodWindowS: float64(r.Duration) / float64(sim.Second),
		BadNum:      r.BadRequests(),
		BadDen:      r.Arrivals,
		EnergyJ:     r.EnergyJ,
		EnergyReqs:  r.Completed,
		Tokens:      r.TokensOut,
		Arrivals:    r.Arrivals,
		Routed:      r.Routed,
		Migrations:  r.Migrations,
		Preemptions: r.Preemptions,
		Handoffs:    r.KVHandoffs,
		HandoffUs:   float64(r.KVHandoffUs),
		lat:         r.Latency.Values(),
	}
	d := newDigest()
	d.ints(r.Epochs, r.Arrivals, r.Routed, r.Rejected, r.Completed, r.Failed, r.SLOViolations,
		r.Migrations, r.Resizes, r.Drains, r.Unplaced, r.NodeFaults,
		int(r.ProcessScopedReload), int(r.KernelScopedReload),
		r.TokensOut, r.KVHandoffs, int(r.KVHandoffUs), r.Preemptions)
	d.floats(r.EnergyJ)
	d.floats(o.lat...)
	for _, m := range r.PerModel {
		d.ints(m.Arrivals, m.Routed, m.Rejected, m.Completed, m.SLOViolations, m.TokensOut)
	}
	if g := r.Gateway; g != nil {
		if err := g.CheckBudget(); err != nil {
			return outcome{}, err
		}
		o.Admitted, o.Shed, o.Hedges, o.HedgeWins = g.Admitted, g.Shed(), g.Hedges, g.HedgeWins
		d.uints(g.Admitted, g.ShedDeadline, g.ShedTenant, g.ShedOverload, g.ShedQueue,
			g.Primaries, g.Hedges, g.HedgeWins, g.Retries, g.BudgetDenied, g.Cancelled,
			g.BreakerOpens, g.BreakerHalfOpens, g.BreakerCloses)
	}
	o.Digest = d.sum()
	return o, nil
}

// ---------------------------------------------------------------------------
// The paper grid.

const (
	gridBatch   = 32
	gridWarmup  = 20 * sim.Millisecond
	gridMeasure = 200 * sim.Millisecond
)

type gridCell struct {
	model   models.Model
	policy  policies.Kind
	workers int
}

// gridCells is the paper's evaluation path cut to the policies that span
// it: no isolation, model-wise right-sizing, and KRISP-I.
func gridCells() []gridCell {
	var cells []gridCell
	for _, name := range []string{"albert", "resnet152", "squeezenet", "shufflenet"} {
		m := mustModel(name)
		for _, p := range []policies.Kind{policies.MPSDefault, policies.ModelRightSize, policies.KRISPI} {
			for _, w := range []int{2, 4} {
				cells = append(cells, gridCell{model: m, policy: p, workers: w})
			}
		}
	}
	return cells
}

type gridRunner struct {
	seed       int64
	measure    sim.Duration
	cells      []gridCell
	db         *profile.DB
	rightSizes map[string]int
	isoP95     map[string]float64
}

func gridConfig(c gridCell, seed int64, measure sim.Duration) server.Config {
	specs := make([]server.WorkerSpec, c.workers)
	for i := range specs {
		specs[i] = server.WorkerSpec{Model: c.model, Batch: gridBatch}
	}
	return server.Config{
		Policy:  c.policy,
		Workers: specs,
		Seed:    seed,
		Warmup:  gridWarmup,
		Measure: measure,
	}
}

// gridSetup is the install-time work the paper's server does once: the
// per-kernel performance database, the model-wise right-sizes, and the
// isolated baselines that define each model's SLO (2x isolated p95).
func gridSetup(seed int64) (runner, error) {
	cells := gridCells()
	r := &gridRunner{seed: seed, measure: gridMeasure, cells: cells, rightSizes: map[string]int{}, isoP95: map[string]float64{}}
	spec := gpu.MI50Spec()
	var all []server.WorkerSpec
	prof := profile.New(profile.Config{Spec: spec, Tolerance: 0.05, LaunchOverhead: hsa.DefaultConfig().PacketProcessTime})
	for _, c := range cells {
		key := fmt.Sprintf("%s/%d", c.model.Name, gridBatch)
		if _, ok := r.rightSizes[key]; ok {
			continue
		}
		all = append(all, server.WorkerSpec{Model: c.model, Batch: gridBatch})
		r.rightSizes[key] = prof.ModelRightSize(c.model.Kernels(gridBatch))
		iso := server.Run(gridConfig(gridCell{model: c.model, policy: policies.MPSDefault, workers: 1}, seed, r.measure))
		p95 := iso.MaxP95()
		if iso.Interrupted || math.IsNaN(p95) {
			return nil, fmt.Errorf("grid: isolated %s baseline measured nothing", c.model.Name)
		}
		r.isoP95[c.model.Name] = p95
	}
	r.db = server.BuildDB(spec, all)
	return r, nil
}

func (r *gridRunner) run(i int, hub *telemetry.Hub) result {
	c := r.cells[i%len(r.cells)]
	cfg := gridConfig(c, r.seed+int64(i), r.measure)
	cfg.DB = r.db
	cfg.RightSizes = r.rightSizes
	cfg.Telemetry = hub
	return gridResult{Result: server.Run(cfg), isoP95: r.isoP95[c.model.Name]}
}

type gridResult struct {
	server.Result
	isoP95 float64
}

func (res gridResult) outcome() (outcome, error) {
	r := &res.Result
	if r.Interrupted {
		return outcome{}, fmt.Errorf("grid: run interrupted")
	}
	d := newDigest()
	var lat []float64
	for i := range r.Workers {
		w := &r.Workers[i]
		if w.Batches == 0 {
			return outcome{}, fmt.Errorf("grid: worker %d (%s) completed no batch", i, w.Model)
		}
		d.ints(w.Batches, w.Requests)
		d.floats(w.BatchLatency.Values()...)
		lat = append(lat, w.BatchLatency.Values()...)
	}
	bad := 0
	if r.MaxP95() > 2*res.isoP95 {
		bad = 1
	}
	oversub := 0
	if r.Oversubscribed {
		oversub = 1
	}
	d.ints(int(r.WindowUs), oversub)
	d.floats(r.RPS, r.EnergyJ, r.EnergyPerInference, r.AvgBusyCUs)
	window := float64(r.WindowUs) / float64(sim.Second)
	return outcome{
		VS:          float64(gridWarmup+r.WindowUs) / float64(sim.Second),
		Completed:   r.TotalRequests(),
		GoodReqs:    r.TotalRequests(),
		GoodWindowS: window,
		BadNum:      bad,
		BadDen:      1,
		EnergyJ:     r.EnergyJ,
		EnergyReqs:  r.TotalRequests(),
		Arrivals:    r.TotalRequests(),
		Digest:      d.sum(),
		lat:         lat,
	}, nil
}

// ---------------------------------------------------------------------------
// Digests.

// digest is an FNV-64a hash over a result's canonical fields, written in a
// fixed order and width so equal results hash equal on any host.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) uints(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) ints(vs ...int) {
	for _, v := range vs {
		d.uints(uint64(v))
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.uints(math.Float64bits(v))
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
