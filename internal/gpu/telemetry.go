package gpu

import (
	"fmt"

	tele "krisp/internal/telemetry"
)

// Telemetry holds the device's metric handles, resolved once at stack
// construction so the launch/complete path never touches the registry. All
// handles are nil-safe; a nil *Telemetry on the device disables everything.
type Telemetry struct {
	// BusyCUs is the number of CUs with at least one kernel assigned.
	BusyCUs *tele.Gauge
	// HealthyCUs is the number of CUs still alive (health bitmap popcount).
	HealthyCUs *tele.Gauge
	// RunningKernels is the number of kernels currently executing.
	RunningKernels *tele.Gauge
	// Launches counts kernel executions started on the device.
	Launches *tele.Counter
	// CUKills counts CUs permanently removed from service.
	CUKills *tele.Counter

	// tracer, when non-nil, receives a per-SE occupancy counter event on
	// every occupancy change — the Fig. 4-style timeline in Perfetto.
	tracer  *tele.Tracer
	pid     int
	ctrName string
	seKeys  []string  // "se0".."seN", built once
	seVals  []float64 // scratch reused across counter events
}

// deviceSeries names the device metrics of every GPU index, in the order
// Bind reads them.
var deviceSeries = tele.NewSeriesNames("gpu",
	"krisp_gpu_busy_cus", "krisp_gpu_healthy_cus", "krisp_gpu_running_kernels",
	"krisp_gpu_launches_total", "krisp_gpu_cu_kills_total")

// Bind resolves t's device metric handles for GPU index gpu against hub
// and returns t, or returns nil (telemetry fully disabled) when the hub
// carries no registry (t may then be nil). The gpu index becomes both the
// metric label and the trace pid. A pooled device stack keeps its
// Telemetry and rebinds it every run, which costs registry lookups only:
// the series names are built once per index.
func (t *Telemetry) Bind(hub *tele.Hub, topo Topology, gpu int) *Telemetry {
	reg := hub.Registry()
	if reg == nil {
		return nil
	}
	names := deviceSeries.For(gpu)
	*t = Telemetry{
		BusyCUs:        reg.Gauge(names[0], "CUs with at least one kernel assigned"),
		HealthyCUs:     reg.Gauge(names[1], "CUs still in service (health bitmap)"),
		RunningKernels: reg.Gauge(names[2], "kernels currently executing"),
		Launches:       reg.Counter(names[3], "kernel executions started"),
		CUKills:        reg.Counter(names[4], "CUs permanently removed from service"),
		tracer:         hub.Trace(),
		pid:            gpu,
	}
	t.HealthyCUs.Set(int64(topo.TotalCUs()))
	if t.tracer != nil {
		t.ctrName = fmt.Sprintf("gpu%d_se_busy_cus", gpu)
		t.tracer.NameProcess(gpu, fmt.Sprintf("gpu%d", gpu))
		t.seKeys = make([]string, topo.NumSEs)
		t.seVals = make([]float64, topo.NumSEs)
		for se := range t.seKeys {
			t.seKeys[se] = fmt.Sprintf("se%d", se)
		}
	}
	return t
}

// SetTelemetry installs (or removes, with nil) the device's telemetry.
func (d *Device) SetTelemetry(t *Telemetry) { d.tel = t }

// publishOccupancy pushes the busy-CU gauge and, when tracing, the per-SE
// occupancy timeline. Called after every chargeExec/releaseExec; with a nil
// tracer the cost is one nil check and one atomic store.
func (d *Device) publishOccupancy() {
	t := d.tel
	if t == nil {
		return
	}
	t.BusyCUs.Set(int64(d.BusyCUs()))
	if t.tracer == nil {
		return
	}
	for se := range t.seVals {
		t.seVals[se] = float64(d.occupied.CountInSE(d.Spec.Topo, se))
	}
	t.tracer.CounterEvent(t.ctrName, t.pid, d.eng.Now(), t.seKeys, t.seVals)
}
