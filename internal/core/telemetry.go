package core

import (
	tele "krisp/internal/telemetry"
)

// Telemetry holds the runtime's metric handles — right-sizing decisions and
// degradation-ladder movement — resolved once at stack construction. All
// handles are nil-safe; a nil *Telemetry on Config disables everything.
type Telemetry struct {
	// Decisions counts kernel-wise right-sizing decisions made.
	Decisions *tele.Counter
	// PartitionCUs is the distribution of decided partition sizes.
	PartitionCUs *tele.Histogram
	// Widenings and Tightenings count degradation-ladder transitions.
	Widenings   *tele.Counter
	Tightenings *tele.Counter
	// Retries counts kernel relaunch attempts after transient failures;
	// Abandoned counts kernels given up past the retry bound.
	Retries   *tele.Counter
	Abandoned *tele.Counter

	tracer *tele.Tracer
	pid    int
}

// runtimeSeries names the runtime metrics of every GPU index, in the order
// Bind reads them.
var runtimeSeries = tele.NewSeriesNames("gpu",
	"krisp_core_rightsize_decisions_total", "krisp_core_partition_cus",
	"krisp_core_ladder_widenings_total", "krisp_core_ladder_tightenings_total",
	"krisp_core_kernel_retries_total", "krisp_core_kernels_abandoned_total")

// Bind resolves t's runtime metric handles for GPU index gpu against hub
// and returns t, or returns nil when the hub carries no registry (t may
// then be nil). Runtimes sharing a GPU share the handles (the registry is
// get-or-register). The series names are built once per index, so
// rebinding a pooled runtime's Telemetry costs registry lookups only.
func (t *Telemetry) Bind(hub *tele.Hub, gpu int) *Telemetry {
	reg := hub.Registry()
	if reg == nil {
		return nil
	}
	names := runtimeSeries.For(gpu)
	*t = Telemetry{
		Decisions:    reg.Counter(names[0], "kernel-wise right-sizing decisions"),
		PartitionCUs: reg.Histogram(names[1], "decided partition sizes (CUs)", tele.CUBuckets()),
		Widenings:    reg.Counter(names[2], "degradation-ladder steps toward wider masks"),
		Tightenings:  reg.Counter(names[3], "degradation-ladder steps back toward kernel scoping"),
		Retries:      reg.Counter(names[4], "kernel relaunches after transient failures"),
		Abandoned:    reg.Counter(names[5], "kernels abandoned past the retry bound"),
		tracer:       hub.Trace(),
		pid:          gpu,
	}
	return t
}

// noteDecision records one right-sizing decision of size CUs on queue tid.
func (t *Telemetry) noteDecision(tid, size int, now float64) {
	if t == nil {
		return
	}
	t.Decisions.Inc()
	t.PartitionCUs.Observe(float64(size))
	t.tracer.Instant("core", "rightsize", t.pid, tid, now, "cus", float64(size))
}

// noteLadder records one ladder transition to level on queue tid.
func (t *Telemetry) noteLadder(tid, level int, widen bool, now float64) {
	if t == nil {
		return
	}
	name := "tighten"
	if widen {
		t.Widenings.Inc()
		name = "widen"
	} else {
		t.Tightenings.Inc()
	}
	t.tracer.Instant("core", name, t.pid, tid, now, "level", float64(level))
}
