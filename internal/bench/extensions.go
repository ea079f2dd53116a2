package bench

import (
	"fmt"
	"io"

	"krisp/internal/metrics"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/profile"
	"krisp/internal/reconfig"
	"krisp/internal/sched"
	"krisp/internal/server"
)

// Fig2 reproduces the paper's motivating comparison of partition-resizing
// mechanisms (Fig. 2): the naive process-scoped restart, the GSLICE-style
// shadow instance, and KRISP's kernel-scoped resize, measured as
// time-to-effect, serving downtime, and batches stuck at the old size.
func (h *Harness) Fig2(w io.Writer) {
	title(w, "Fig 2: resizing an inference server's spatial partition")
	names := []string{"squeezenet", "albert"}
	if h.opts.Quick {
		names = names[:1]
	}
	var t table
	t.addHeader("model", "scheme", "time-to-effect", "downtime", "stale batches")
	for _, name := range names {
		m, _ := models.ByName(name)
		for _, s := range reconfig.Schemes() {
			res := reconfig.Simulate(s, reconfig.Request{
				Model: m, Batch: models.CalibrationBatch, FromCUs: 40, ToCUs: 20,
			})
			t.addRow(name, s.String(),
				formatDuration(res.TimeToEffect),
				formatDuration(res.Downtime),
				fmt.Sprint(res.StaleBatches))
		}
	}
	t.render(w)
	fmt.Fprintln(w, "process-scoped resizes pay a ~10s model reload (masked or not); kernel-scoped resizes land at the next kernel")
}

func formatDuration(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2f s", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2f ms", us/1e3)
	default:
		return fmt.Sprintf("%.0f us", us)
	}
}

// LoadSweep is the open-loop extension: Poisson arrivals with dynamic
// batching swept across offered load, reporting p95 request latency per
// policy — the fluctuating-request-rate regime the paper's evaluation
// deliberately excludes but prior-work schedulers target. The useful
// shape: KRISP-I sustains the highest load before its latency knee.
func (h *Harness) LoadSweep(w io.Writer) {
	title(w, "Load sweep (extension): p95 request latency (ms) vs offered load, 4 workers of squeezenet")
	m, _ := models.ByName("squeezenet")
	rates := []float64{1000, 4000, 8000, 12000, 16000}
	if h.opts.Quick {
		rates = []float64{1000, 8000}
	}
	kinds := []policies.Kind{policies.MPSDefault, policies.StaticEqual, policies.KRISPI}

	var t table
	header := []string{"offered req/s"}
	for _, k := range kinds {
		header = append(header, k.Label()+" p95", k.Label()+" done/s")
	}
	t.addHeader(header...)
	scale := 1.0
	if h.opts.Quick {
		scale = 0.25
	}
	for _, rate := range rates {
		row := []string{fmt.Sprintf("%.0f", rate)}
		for _, k := range kinds {
			specs := make([]server.WorkerSpec, 4)
			for i := range specs {
				specs[i] = server.WorkerSpec{Model: m, Batch: models.CalibrationBatch}
			}
			cfg := server.Config{
				Policy:       k,
				Workers:      specs,
				Seed:         h.opts.Seed,
				MeasureScale: scale,
				Telemetry:    h.opts.Telemetry,
			}
			res := server.RunOpenLoop(cfg, server.Arrival{RatePerSec: rate})
			row = append(row,
				fmt.Sprintf("%.1f", res.RequestLatency.P95()/1000),
				fmt.Sprintf("%.0f", res.Completed))
		}
		t.addRow(row...)
	}
	t.render(w)
}

// Scheduler is the cluster-scale extension: a Gpulet-style epoch planner
// re-sizes and re-packs model instances as offered load moves through a
// diurnal trace, and the reconfiguration bill is compared between
// process-scoped shadow reloads and kernel-scoped partition instances —
// the paper's Fig. 2 argument at fleet scale.
func (h *Harness) Scheduler(w io.Writer) {
	title(w, "Cluster scheduler (extension): epoch replanning cost, process- vs kernel-scoped")
	planner := sched.NewPlanner(profile.DefaultConfig())
	squeeze, _ := models.ByName("squeezenet")
	albert, _ := models.ByName("albert")
	resnet, _ := models.ByName("resnet152")
	base := []sched.Demand{
		{Model: squeeze, Batch: models.CalibrationBatch},
		{Model: albert, Batch: models.CalibrationBatch},
		{Model: resnet, Batch: models.CalibrationBatch},
	}
	// A compressed diurnal trace: night, ramp, peak, evening, night.
	trace := [][]float64{
		{800, 200, 600},
		{2500, 600, 2000},
		{7000, 1100, 4500},
		{3500, 800, 2500},
		{800, 200, 600},
	}
	if h.opts.Quick {
		trace = trace[:3]
	}
	plans, report := planner.ReplanTrace(base, trace, 4, reconfig.DefaultCosts())

	var t table
	t.addHeader("epoch", "rates (rps)", "gpulets", "GPUs", "CUs used")
	for e, plan := range plans {
		used := 0
		for g := 0; g < plan.GPUs; g++ {
			used += plan.TotalCUs(g)
		}
		t.addRow(fmt.Sprint(e),
			fmt.Sprintf("%v", trace[e]),
			fmt.Sprint(len(plan.Gpulets)),
			fmt.Sprint(plan.GPUs),
			fmt.Sprint(used))
	}
	t.render(w)
	fmt.Fprintf(w, "\n%d resizes over %d epochs\n", report.Resizes, report.Epochs)
	fmt.Fprintf(w, "process-scoped reload bill: %s of background reloading (shadow instances)\n",
		formatDuration(float64(report.ProcessScopedReload)))
	fmt.Fprintf(w, "kernel-scoped reload bill:  %s\n", formatDuration(float64(report.KernelScopedReload)))
}

// Extension evaluates the paper's suggested enhancement to prior works
// (§II-D): model-wise right-sizing enforced per request through
// kernel-scoped partition instances (MRS-Request), between the epoch-based
// Model Right-Size baseline and full kernel-wise KRISP-I.
func (h *Harness) Extension(w io.Writer) {
	title(w, "Extension: request-granular model right-sizing on kernel-scoped instances")
	names := []string{"albert", "squeezenet", "resnext101", "vgg19"}
	if h.opts.Quick {
		names = names[:2]
	}
	kinds := []policies.Kind{policies.ModelRightSize, policies.MRSRequest, policies.KRISPI}

	var t table
	header := []string{"model"}
	for _, k := range kinds {
		header = append(header, k.Label()+"/2w", k.Label()+"/4w")
	}
	t.addHeader(header...)

	type acc struct{ vals [6][]float64 }
	var a acc
	for _, name := range names {
		m, _ := models.ByName(name)
		iso := h.runServer(m, models.CalibrationBatch, 1, policies.MPSDefault, nil).RPS
		row := []string{name}
		col := 0
		for _, k := range kinds {
			for _, wk := range []int{2, 4} {
				res := h.runServer(m, models.CalibrationBatch, wk, k, nil)
				norm := res.RPS / iso
				a.vals[col] = append(a.vals[col], norm)
				col++
				row = append(row, fmt.Sprintf("%.2f", norm))
			}
		}
		t.addRow(row...)
	}
	row := []string{"geomean"}
	for col := 0; col < 6; col++ {
		row = append(row, fmt.Sprintf("%.2f", metrics.Geomean(a.vals[col])))
	}
	t.addRow(row...)
	t.render(w)
	fmt.Fprintln(w, "MRS-Request re-establishes the model partition per request (no reload, no epochs);")
	fmt.Fprintln(w, "KRISP-I additionally right-sizes each kernel — the paper's full contribution.")
}
