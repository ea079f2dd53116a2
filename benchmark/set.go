package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Host-time metrics are reference-adjusted; sim_* describe
// the modelled system and are exact functions of the seed. Each bound is
// at least three times the ten-seed quartile spread seen on the shared
// 2-vCPU host the baseline was recorded on (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_ms_per_vs", "ms/vs", "lower", 0.20},
	{"run_ms_p50", "ms", "lower", 0.20},
	{"run_ms_p90", "ms", "lower", 0.20},
	{"cpu_ms_per_vs", "ms/vs", "lower", 0.20},
	{"requests_per_s", "req/s", "higher", 0.20},
	{"allocs_per_vs", "objects/vs", "lower", 0.05},
	{"alloc_mb_per_vs", "MB/vs", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"sim_goodput_rps", "req/vs", "higher", 0.05},
	{"sim_latency_p50_ms", "ms", "lower", 0.05},
	{"sim_latency_p99_ms", "ms", "lower", 0.05},
	{"sim_slo_met_ratio", "ratio", "higher", 0.05},
	{"sim_energy_mj_per_req", "mJ", "lower", 0.05},
}

// perLayer are the traced run's numbers. Every metric is reported for every
// workload; a layer a workload never enters reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{Name: l + ".self_share", Unit: "ratio", Better: "lower"},
			metricDef{Name: l + ".self_ms_per_vs", Unit: "ms/vs", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "sched.setup_ms", Unit: "ms", Better: "lower"},
		{Name: "gpu.launches_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "gpu.ns_per_launch", Unit: "ns", Better: "lower"},
		{Name: "hsa.dispatches_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "hsa.ioctls_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "hsa.ns_per_dispatch", Unit: "ns", Better: "lower"},
		{Name: "core.rightsize_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "core.ns_per_rightsize", Unit: "ns", Better: "lower"},
		{Name: "core.partition_cus_mean", Unit: "CUs", Better: "lower"},
		{Name: "alloc.ns_per_rightsize", Unit: "ns", Better: "lower"},
		{Name: "server.ns_per_request", Unit: "ns", Better: "lower"},
		{Name: "llm.tokens_per_vs", Unit: "1/vs", Better: "higher"},
		{Name: "llm.tokens_per_s", Unit: "tok/s", Better: "higher"},
		{Name: "llm.ns_per_token", Unit: "ns", Better: "lower"},
		{Name: "llm.preemptions_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "llm.handoffs_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "llm.handoff_us_mean", Unit: "us", Better: "lower"},
		{Name: "cluster.routed_per_vs", Unit: "1/vs", Better: "higher"},
		{Name: "cluster.ns_per_routed", Unit: "ns", Better: "lower"},
		{Name: "cluster.migrations_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "gateway.admitted_per_vs", Unit: "1/vs", Better: "higher"},
		{Name: "gateway.ns_per_admission", Unit: "ns", Better: "lower"},
		{Name: "gateway.shed_ratio", Unit: "ratio", Better: "lower"},
		{Name: "gateway.hedge_win_ratio", Unit: "ratio", Better: "higher"},
		{Name: "telemetry.ns_per_routed", Unit: "ns", Better: "lower"},
		{Name: "workload.ns_per_arrival", Unit: "ns", Better: "lower"},
		{Name: "gc.cycles_per_vs", Unit: "1/vs", Better: "lower"},
		{Name: "gc.pause_ms_per_vs", Unit: "ms/vs", Better: "lower"},
		{Name: "trace.cpu_ms_per_vs", Unit: "ms/vs", Better: "lower"},
		{Name: "trace.profile_coverage", Unit: "ratio", Better: "higher"},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "trace.count_overhead_ratio", Unit: "ratio", Better: "lower"},
	}...)
}()

// ---------------------------------------------------------------------------
// Baseline.

//go:embed baseline.json
var baselineJSON []byte

// baseline is what the benchmark pins: the host-speed reference, each
// workload's canonical digest and memory ceiling, and the two recorded
// sets the bounds were checked against.
type baseline struct {
	RefNominalMs float64                     `json:"ref_nominal_ms"`
	Workloads    map[string]workloadBaseline `json:"workloads"`
}

type workloadBaseline struct {
	// Digest is the canonical default-seed digest (see childRunner.check).
	Digest string `json:"digest"`
	// MemCeilingMB fails a child whose resident set exceeds it: four times
	// the recorded peak.
	MemCeilingMB float64 `json:"mem_ceiling_mb"`
	// The file also records the two baseline sets ("sets": each metric's
	// [q1, median, q3]) for people comparing against them; the benchmark
	// does not read them.
}

func loadBaseline() (baseline, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return b, fmt.Errorf("baseline.json: %w", err)
	}
	if b.RefNominalMs <= 0 {
		return b, fmt.Errorf("baseline.json: ref_nominal_ms must be positive")
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Invocations.

const (
	// rounds is how many child processes share an invocation's runs; each
	// sets up cold once, so setup_s is a median over rounds.
	rounds = 8
	// minRuns keeps ten runs beyond run_ms_p90.
	minRuns = 100
	// defaultSeed is the seed baseline.json's digests are pinned at.
	defaultSeed = 1
)

// runsFor sizes an invocation from its length alone, so both sides of a
// comparison run the same simulations. The count is a whole number of
// passes per child, so every child measures the same mix of inputs.
func runsFor(w *benchWorkload, seconds int) int {
	n := max(minRuns, int(float64(seconds)*w.runsPerSecond+0.5))
	unit := rounds * w.passLen
	return (n + unit - 1) / unit * unit
}

// invocation is one benchmark run of one workload.
type invocation struct {
	w       *benchWorkload
	seed    int64
	seconds int
	trace   bool
	base    baseline
}

// outcomeReport is an invocation's result: the metrics, the operation
// counts, and why any operation failed.
type outcomeReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Raw       map[string]float64 `json:"raw,omitempty"` // host times before reference adjustment
	Digest    string             `json:"digest"`        // chained digest of every run
	// Children holds each child's unadjusted timings and reference passes.
	Children []childSummary `json:"children,omitempty"`
}

// childSummary keeps a child's raw timings, so a record can be
// re-analysed with another adjustment, and its memory peaks.
type childSummary struct {
	SetupS     float64   `json:"setup_s"`
	RunMs      []float64 `json:"run_ms"`
	RefMs      []float64 `json:"ref_ms"`
	RefAtRun   []int     `json:"ref_at_run"`
	VS         float64   `json:"vs"`
	CPUMs      float64   `json:"cpu_ms"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	HeapGoalMB float64   `json:"heap_goal_mb"`
}

func (o *outcomeReport) fail(format string, args ...any) {
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func (inv invocation) run() (*outcomeReport, []span) {
	out := &outcomeReport{Workload: inv.w.name, Seed: inv.seed, Trace: inv.trace}
	wb, ok := inv.base.Workloads[inv.w.name]
	if !ok {
		out.fail("baseline.json has no entry for %s", inv.w.name)
		return out, nil
	}
	n := runsFor(inv.w, inv.seconds)
	var specs []childSpec
	if inv.trace {
		// The traced child repeats the untraced child's runs, so their
		// digests must agree and their times give the tracing overhead.
		m := n / 2
		specs = []childSpec{
			{Workload: inv.w.name, Seed: inv.seed, Count: m},
			{Workload: inv.w.name, Seed: inv.seed, Count: m, Trace: true, Check: true},
		}
	} else {
		for k := 0; k < rounds; k++ {
			first, next := k*n/rounds, (k+1)*n/rounds
			specs = append(specs, childSpec{Workload: inv.w.name, Seed: inv.seed, First: first, Count: next - first, Check: k == rounds-1})
		}
	}
	var reps []*childReport
	for _, spec := range specs {
		out.Attempted += spec.Count
		if spec.Check {
			out.Attempted += inv.w.passLen
		}
		rep, err := spawnChild(spec, wb.MemCeilingMB)
		if err != nil {
			out.Failed += spec.Count
			out.Problems = append(out.Problems, err.Error())
			continue
		}
		reps = append(reps, rep)
		if rep.Run.Failed > 0 {
			out.Failed += rep.Run.Failed
			out.Problems = append(out.Problems, rep.Run.Errors...)
		}
		if spec.Check {
			switch {
			case rep.CheckError != "":
				out.fail("canonical check: %s", rep.CheckError)
			case rep.CheckDigest != wb.Digest:
				out.fail("canonical digest %s, baseline.json pins %s", rep.CheckDigest, wb.Digest)
			}
		}
	}
	if len(reps) != len(specs) {
		return out, nil
	}
	for _, r := range reps {
		out.Children = append(out.Children, childSummary{
			SetupS: r.SetupS,
			RunMs:  r.Run.RunMs, RefMs: r.Run.RefMs, RefAtRun: r.Run.RefAtRun,
			VS: r.Run.Sim.VS, CPUMs: r.Run.CPUMs,
			PeakRSSMB: float64(r.HWMKB) / 1024, HeapGoalMB: float64(r.Run.HeapGoal) / 1e6,
		})
	}
	if inv.trace {
		return out, inv.traceMetrics(out, reps[0], reps[1])
	}
	inv.endToEndMetrics(out, reps)
	return out, nil
}

// spawnChild runs one child of this executable and decodes its report.
// While it runs, the parent polls its resident set and kills it above the
// ceiling, so a memory regression fails the benchmark instead of the host.
func spawnChild(spec childSpec, ceilingMB float64) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-child", string(arg))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start child: %w", err)
	}
	ceilingKB := uint64(ceilingMB * 1024)
	done, stopped := make(chan struct{}), make(chan struct{})
	killed := make(chan uint64, 1)
	go func() {
		defer close(stopped)
		pid := strconv.Itoa(cmd.Process.Pid)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if rss := procStatusKB(pid, "VmRSS:"); rss > ceilingKB {
					killed <- rss
					// A child that exited meanwhile makes Kill fail; Wait
					// reports how it ended either way.
					_ = cmd.Process.Kill()
					return
				}
			}
		}
	}()
	err = cmd.Wait()
	close(done)
	<-stopped
	select {
	case rss := <-killed:
		return nil, fmt.Errorf("%s child killed at %d MB resident, ceiling %.0f MB", spec.Workload, rss/1024, ceilingMB)
	default:
	}
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", spec.Workload, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s child report: %w", spec.Workload, err)
	}
	if hwm := float64(rep.HWMKB) / 1024; hwm > ceilingMB {
		return nil, fmt.Errorf("%s child peaked at %.1f MB resident, ceiling %.0f MB", spec.Workload, hwm, ceilingMB)
	}
	return &rep, nil
}

// refWindow is how many reference passes on each side of a run set its
// host speed: about two seconds of runs, long enough that one disturbed
// pass does not move the median, short enough to follow the host.
const refWindow = 4

// adjustedRunMs returns each run's host time adjusted to nominalMs by the
// median of the reference passes around it; nominalMs 0 leaves them raw.
func (p *pass) adjustedRunMs(nominalMs float64) []float64 {
	out := make([]float64, len(p.RunMs))
	k := 0 // p.RefAtRun[k] <= j < p.RefAtRun[k+1]
	for j, ms := range p.RunMs {
		for k+1 < len(p.RefAtRun) && p.RefAtRun[k+1] <= j {
			k++
		}
		out[j] = ms
		if nominalMs > 0 {
			out[j] = adjust(ms, p.refAround(k+1), nominalMs)
		}
	}
	return out
}

// refAround is the median of the refWindow reference passes on each side
// of the boundary before pass i.
func (p *pass) refAround(i int) float64 {
	return median(p.RefMs[max(0, i-refWindow):min(len(p.RefMs), i+refWindow)])
}

// hostMsPerVS is the pass's adjusted host time per virtual second.
func (p *pass) hostMsPerVS(nominalMs float64) float64 {
	s := 0.0
	for _, ms := range p.adjustedRunMs(nominalMs) {
		s += ms
	}
	return s / p.Sim.VS
}

func (inv invocation) endToEndMetrics(out *outcomeReport, reps []*childReport) {
	var sim simTotals
	var mallocs, allocBytes uint64
	var rss []float64
	for _, r := range reps {
		sim.merge(r.Run.Sim)
		mallocs += r.Run.Mallocs
		allocBytes += r.Run.AllocBytes
		rss = append(rss, float64(r.HWMKB)/1024)
	}
	m := map[string]float64{
		"allocs_per_vs":         float64(mallocs) / sim.VS,
		"alloc_mb_per_vs":       float64(allocBytes) / 1e6 / sim.VS,
		"peak_rss_mb":           median(rss),
		"sim_goodput_rps":       float64(sim.GoodReqs) / sim.GoodWindowS,
		"sim_slo_met_ratio":     1 - float64(sim.BadNum)/float64(sim.BadDen),
		"sim_energy_mj_per_req": sim.EnergyJ * 1000 / float64(sim.EnergyReqs),
	}
	var err error
	if m["sim_latency_p50_ms"], err = sim.Lat.percentile(50); err != nil {
		out.fail("sim_latency_p50_ms: %v", err)
	}
	if m["sim_latency_p99_ms"], err = sim.Lat.percentile(99); err != nil {
		out.fail("sim_latency_p99_ms: %v", err)
	}
	adjusted, err := hostTimes(reps, inv.base.RefNominalMs)
	if err != nil {
		out.fail("%v", err)
	}
	for k, v := range adjusted {
		m[k] = v
	}
	out.Raw, _ = hostTimes(reps, 0)
	out.Metrics = m
	out.Digest = fmt.Sprintf("%016x", sim.Digest)
}

// hostTimes computes the host-time metrics over the children's runs, each
// child's times reference-adjusted to nominalMs (0 leaves them raw).
// Rates and times per virtual second are medians over children; run
// percentiles pool every run.
func hostTimes(reps []*childReport, nominalMs float64) (map[string]float64, error) {
	var setup, hostMs, cpuMs, reqPerS, runMs []float64
	for _, r := range reps {
		adjusted := r.Run.adjustedRunMs(nominalMs)
		wall := 0.0
		for _, ms := range adjusted {
			wall += ms
		}
		vs := r.Run.Sim.VS
		setupS := r.SetupS
		if nominalMs > 0 {
			// The set-up ran just before the first runs.
			setupS = adjust(setupS, r.Run.refAround(0), nominalMs)
		}
		setup = append(setup, setupS)
		hostMs = append(hostMs, wall/vs)
		// CPU time scales with the runs' wall-time adjustment.
		cpuMs = append(cpuMs, r.Run.CPUMs*wall/r.Run.wallMs()/vs)
		reqPerS = append(reqPerS, float64(r.Run.Sim.Completed)/(wall/1000))
		runMs = append(runMs, adjusted...)
	}
	m := map[string]float64{
		"setup_s":        median(setup),
		"host_ms_per_vs": median(hostMs),
		"cpu_ms_per_vs":  median(cpuMs),
		"requests_per_s": median(reqPerS),
	}
	var err error
	if m["run_ms_p50"], err = percentile(runMs, 50); err != nil {
		return m, fmt.Errorf("run_ms_p50: %w", err)
	}
	if m["run_ms_p90"], err = percentile(runMs, 90); err != nil {
		return m, fmt.Errorf("run_ms_p90: %w", err)
	}
	return m, nil
}

// traceMetrics derives the per-layer numbers from the traced child and the
// tracing overhead from the untraced one.
func (inv invocation) traceMetrics(out *outcomeReport, plain, traced *childReport) []span {
	nominal := inv.base.RefNominalMs
	if d := traced.Run.Sim.Digest; d != plain.Run.Sim.Digest || d != traced.Count.Sim.Digest {
		out.fail("traced digests %016x (profiled) and %016x (counted) differ from untraced %016x",
			d, traced.Count.Sim.Digest, plain.Run.Sim.Digest)
	}
	run, sim := traced.Run, traced.Run.Sim
	vs := sim.VS
	var total int64
	for _, ns := range traced.Layers {
		total += ns
	}
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".self_share"] = ratio(float64(traced.Layers[l]), float64(total))
		m[l+".self_ms_per_vs"] = float64(traced.Layers[l]) / 1e6 / vs
	}
	selfNs := func(l string) float64 { return float64(traced.Layers[l]) }
	c := traced.Counters
	launches := c["krisp_gpu_launches_total"]
	dispatches := c["krisp_hsa_dispatches_total"]
	decisions := c["krisp_core_rightsize_decisions_total"]
	m["sched.setup_ms"] = float64(traced.SetupLayers["sched"]) / 1e6 / float64(traced.SetupReps)
	m["gpu.launches_per_vs"] = launches / vs
	m["gpu.ns_per_launch"] = ratio(selfNs("gpu"), launches)
	m["hsa.dispatches_per_vs"] = dispatches / vs
	m["hsa.ioctls_per_vs"] = c["krisp_hsa_ioctls_total"] / vs
	m["hsa.ns_per_dispatch"] = ratio(selfNs("hsa"), dispatches)
	m["core.rightsize_per_vs"] = decisions / vs
	m["core.ns_per_rightsize"] = ratio(selfNs("core"), decisions)
	m["core.partition_cus_mean"] = ratio(traced.PartCUs[0], traced.PartCUs[1])
	m["alloc.ns_per_rightsize"] = ratio(selfNs("alloc"), decisions)
	m["server.ns_per_request"] = ratio(selfNs("server"), float64(sim.Completed))
	m["llm.tokens_per_vs"] = float64(sim.Tokens) / vs
	m["llm.tokens_per_s"] = float64(sim.Tokens) / (run.hostMsPerVS(nominal) * vs / 1000)
	m["llm.ns_per_token"] = ratio(selfNs("llm"), float64(sim.Tokens))
	m["llm.preemptions_per_vs"] = float64(sim.Preemptions) / vs
	m["llm.handoffs_per_vs"] = float64(sim.Handoffs) / vs
	m["llm.handoff_us_mean"] = ratio(sim.HandoffUs, float64(sim.Handoffs))
	m["cluster.routed_per_vs"] = float64(sim.Routed) / vs
	m["cluster.ns_per_routed"] = ratio(selfNs("cluster"), float64(sim.Routed))
	m["cluster.migrations_per_vs"] = float64(sim.Migrations) / vs
	m["gateway.admitted_per_vs"] = float64(sim.Admitted) / vs
	m["gateway.ns_per_admission"] = ratio(selfNs("gateway"), float64(sim.Admitted+sim.Shed))
	m["gateway.shed_ratio"] = ratio(float64(sim.Shed), float64(sim.Arrivals))
	m["gateway.hedge_win_ratio"] = ratio(float64(sim.HedgeWins), float64(sim.Hedges))
	m["telemetry.ns_per_routed"] = ratio(selfNs("telemetry"), float64(sim.Routed))
	m["workload.ns_per_arrival"] = ratio(selfNs("workload"), float64(sim.Arrivals))
	m["gc.cycles_per_vs"] = float64(run.NumGC) / vs
	m["gc.pause_ms_per_vs"] = float64(run.PauseNs) / 1e6 / vs
	m["trace.cpu_ms_per_vs"] = run.CPUMs / vs
	m["trace.profile_coverage"] = ratio(float64(total)/1e6, run.CPUMs)
	plainMs := plain.Run.hostMsPerVS(nominal)
	m["trace.overhead_ratio"] = traced.Run.hostMsPerVS(nominal) / plainMs
	m["trace.count_overhead_ratio"] = traced.Count.hostMsPerVS(nominal) / plainMs
	out.Metrics = m
	out.Digest = fmt.Sprintf("%016x", sim.Digest)
	return traced.Spans
}

// ratio is a/b, or 0 when the layer did no work of that kind.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
