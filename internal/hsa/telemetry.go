package hsa

import (
	"fmt"

	tele "krisp/internal/telemetry"
)

// Telemetry holds the command processor's metric handles, resolved once at
// stack construction. The dispatch pump reads them through a single nil
// check per packet; every write is one atomic op, so the zero-alloc fast
// path (see package doc) is preserved with counters enabled. The tracer is
// the only allocating consumer and is nil unless span tracing was requested.
type Telemetry struct {
	// Dispatches counts kernel packets handed to the device.
	Dispatches *tele.Counter
	// Barriers counts barrier-AND packets consumed.
	Barriers *tele.Counter
	// IOCTLs counts CU-mask IOCTL syscalls issued.
	IOCTLs *tele.Counter
	// QueueDepth is the number of packets waiting across all queues of the
	// processor (submitted, not yet consumed).
	QueueDepth *tele.Gauge
	// DispatchWait is the doorbell-to-dispatch latency: from Submit to the
	// device launch, including queue serialization and packet processing.
	DispatchWait *tele.Histogram
	// IOCTLLatency is the caller-observed CU-mask IOCTL latency, including
	// the global serialization wait.
	IOCTLLatency *tele.Histogram

	tracer *tele.Tracer
	pid    int
}

// processorSeries names the HSA metrics of every GPU index, in the order
// Bind reads them.
var processorSeries = tele.NewSeriesNames("gpu",
	"krisp_hsa_dispatches_total", "krisp_hsa_barriers_total", "krisp_hsa_ioctls_total",
	"krisp_hsa_queue_depth", "krisp_hsa_dispatch_wait_us", "krisp_hsa_ioctl_latency_us")

// Bind resolves t's HSA metric handles for GPU index gpu against hub and
// returns t, or returns nil when the hub carries no registry (t may then
// be nil). Rebinding a pooled processor's Telemetry costs registry lookups
// only: the series names are built once per index.
func (t *Telemetry) Bind(hub *tele.Hub, gpu int) *Telemetry {
	reg := hub.Registry()
	if reg == nil {
		return nil
	}
	names := processorSeries.For(gpu)
	*t = Telemetry{
		Dispatches:   reg.Counter(names[0], "kernel packets dispatched to the device"),
		Barriers:     reg.Counter(names[1], "barrier-AND packets consumed"),
		IOCTLs:       reg.Counter(names[2], "CU-mask IOCTL syscalls issued"),
		QueueDepth:   reg.Gauge(names[3], "packets waiting across all queues"),
		DispatchWait: reg.Histogram(names[4], "doorbell-to-dispatch latency (virtual us)", tele.LatencyBucketsUs()),
		IOCTLLatency: reg.Histogram(names[5], "observed CU-mask IOCTL latency incl. serialization (virtual us)", tele.LatencyBucketsUs()),
		tracer:       hub.Trace(),
		pid:          gpu,
	}
	return t
}

// SetTelemetry installs (or removes, with nil) the processor's telemetry.
// Install it before creating queues so the trace names every queue thread.
func (cp *CommandProcessor) SetTelemetry(t *Telemetry) { cp.tel = t }

// nameQueue registers the Perfetto display name for a queue's trace rows.
func (t *Telemetry) nameQueue(id int) {
	if t == nil || t.tracer == nil {
		return
	}
	t.tracer.NameThread(t.pid, id, fmt.Sprintf("hsa-queue-%d", id))
}
