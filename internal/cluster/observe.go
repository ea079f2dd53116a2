package cluster

import (
	"fmt"
	"sort"

	"krisp/internal/cluster/gateway"
	"krisp/internal/server"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// journeyPidBase namespaces the per-tenant journey tracks in the Chrome
// trace, clear of the per-GPU pids the node stacks use and the fleet
// control track (fleetPid).
const journeyPidBase = 1 << 19

// fleetPid is the Chrome-trace process id of the fleet control track:
// router decisions, gateway hedges/breakers, and autoscaler actions land
// here as instant events, clear of the per-GPU node pids and the journey
// tracks.
const fleetPid = 1 << 20

// Thread ids on the fleet control track.
const (
	fleetTidRouter = iota
	fleetTidGateway
	fleetTidScaler
)

// laggardK bounds the per-rank laggard gauges: instead of one histogram
// per node (unbounded label cardinality as fleets scale), the fleet
// exports one aggregated depth histogram plus the top-K most-loaded nodes
// each tick.
const laggardK = 4

// Observability opts the fleet into the request-journey and SLO-monitoring
// layer. The zero value (and a nil pointer on Config) disables everything:
// runs are byte-identical to a fleet without the layer, and the routing hot
// path keeps its zero-allocation guarantee.
type Observability struct {
	// SampleEvery samples every Nth request into a pooled journey record
	// (1 = every request, 100 = 1%). 0 disables journeys entirely.
	SampleEvery int
	// Monitors enables per-model SLO burn-rate monitors. Unlike journeys,
	// monitors see every request outcome — sampling would distort the burn
	// arithmetic — but cost only ring-bucket increments.
	Monitors bool
	// Burn overrides the monitors' windows; zero fields take tick-derived
	// fleet defaults (see burnDefaults).
	Burn telemetry.BurnConfig
	// FlightCap bounds the anomalous-journey flight recorder (0 = 64).
	FlightCap int
}

func (o *Observability) enabled() bool {
	return o != nil && (o.SampleEvery > 0 || o.Monitors)
}

// burnDefaults fills zero BurnConfig fields with windows derived from the
// fleet tick, so the defaults scale with the experiment's time resolution:
// 5-tick rollups, a 2-bucket fast window, a 6-bucket slow window.
func burnDefaults(b telemetry.BurnConfig, tick sim.Duration) telemetry.BurnConfig {
	w := 5 * int64(tick)
	if b.Objective == 0 {
		b.Objective = 0.95
	}
	if b.WidthUs == 0 {
		b.WidthUs = w
	}
	if b.FastWindowUs == 0 {
		b.FastWindowUs = 2 * b.WidthUs
	}
	if b.SlowWindowUs == 0 {
		b.SlowWindowUs = 6 * b.WidthUs
	}
	if b.PageBurn == 0 {
		b.PageBurn = 5
	}
	if b.WarnBurn == 0 {
		b.WarnBurn = 2
	}
	if b.ClearHoldUs == 0 {
		b.ClearHoldUs = 3 * b.WidthUs
	}
	if b.MinCount == 0 {
		b.MinCount = 5
	}
	return b
}

// fleetCounter publishes one of the fleet's own monotonic tallies as a
// registry counter. Each publish adds the growth since the last one, so
// runs that share a registry still sum.
type fleetCounter struct {
	c    *telemetry.Counter
	last int
}

func (c *fleetCounter) publish(total int) {
	c.c.Add(uint64(total - c.last))
	c.last = total
}

// fleetObserver is the fleet's one observation layer. With a registry it
// mirrors the fleet's totals into the krisp_fleet_* counters and samples
// the replica, depth and laggard gauges once per tick; with a tracer it
// drops route, scaler and fault instants on the fleet track; with Obs
// enabled it threads request journeys, stage-attribution histograms,
// burn-rate monitors, and the flight recorder through the control loop.
// Every method tolerates a nil receiver, and the observer only observes:
// it draws no randomness, schedules no events, and leaves RoutingLog and
// Result byte-identical on or off.
//
// The observer runs strictly on the fleet control goroutine. Journey
// records come from a single-goroutine pool; live journeys are keyed by
// request id, and the rare sweeps that iterate the map (node faults, run
// end) sort the ids first so flight-recorder content replays identically.
type fleetObserver struct {
	// Registry mirrors; nodesUp is nil without a registry. The counters
	// publish from the fleet's own tallies, never per event.
	routed, rejected, completed, failed, sloViolations fleetCounter
	migrations, resizes, drains, nodeFaults            fleetCounter
	nodesUp                                            *telemetry.Gauge
	replicas                                           []*telemetry.Gauge // per model index
	// queueDepth samples every up node's outstanding requests once per
	// tick into one aggregated histogram; laggardDepth[k] / laggardNode[k]
	// export the k-th most-loaded node's outstanding count and id (-1 when
	// fewer nodes are up than ranks).
	queueDepth   *telemetry.Histogram
	laggardDepth [laggardK]*telemetry.Gauge
	laggardNode  [laggardK]*telemetry.Gauge

	sampleEvery uint64
	pool        telemetry.JourneyPool
	byID        map[uint64]*telemetry.Journey
	flight      *telemetry.FlightRecorder // nil unless Obs is enabled
	monitors    []*telemetry.BurnMonitor  // per model; nil when Monitors off
	// stage[model][tenant][stage] are the latency-attribution histograms.
	stage   [][][telemetry.NumStages]*telemetry.Histogram
	tracer  *telemetry.Tracer
	shedSeq uint64   // dedicated shed-sampling counter (sheds carry no id)
	idBuf   []uint64 // sweep scratch
}

// newFleetObserver builds the observer: the fleet counters and gauges on
// the hub's registry, the fleet trace track on its tracer, and — when o is
// enabled — the journey pool, stage histograms and bound monitors. Returns
// nil when there is neither a registry nor an enabled o, so a bare fleet
// pays one nil check per hook.
func newFleetObserver(o *Observability, hub *telemetry.Hub, modelNames []string, tenants int, tick sim.Duration) *fleetObserver {
	reg := hub.Registry()
	if reg == nil && !o.enabled() {
		return nil
	}
	fo := &fleetObserver{tracer: hub.Trace()}
	if reg != nil {
		fo.routed.c = reg.Counter("krisp_fleet_routed_total", "requests routed to a replica")
		fo.rejected.c = reg.Counter("krisp_fleet_rejected_total", "requests rejected by admission control or shed from the queue")
		fo.completed.c = reg.Counter("krisp_fleet_completed_total", "requests completed")
		fo.failed.c = reg.Counter("krisp_fleet_failed_total", "requests lost to node faults")
		fo.sloViolations.c = reg.Counter("krisp_fleet_slo_violations_total", "completed requests whose latency exceeded the model SLO")
		fo.migrations.c = reg.Counter("krisp_fleet_migrations_total", "replicas placed onto a new GPU (model load paid)")
		fo.resizes.c = reg.Counter("krisp_fleet_resizes_total", "replicas resized in place (free under kernel-scoped instances)")
		fo.drains.c = reg.Counter("krisp_fleet_drains_total", "replicas drained out of the placement")
		fo.nodeFaults.c = reg.Counter("krisp_fleet_node_faults_total", "node-level faults applied")
		fo.nodesUp = reg.Gauge("krisp_fleet_nodes_up", "nodes currently serving")
		for _, m := range modelNames {
			fo.replicas = append(fo.replicas, reg.Gauge(
				fmt.Sprintf(`krisp_fleet_replicas{model="%s"}`, m),
				"live replicas per model"))
		}
		fo.queueDepth = reg.Histogram(
			"krisp_fleet_node_outstanding",
			"outstanding requests per node, sampled per tick (all nodes aggregated)",
			telemetry.QueueDepthBuckets())
		for k := 0; k < laggardK; k++ {
			fo.laggardDepth[k] = reg.Gauge(
				fmt.Sprintf(`krisp_fleet_node_laggard{rank="%d"}`, k),
				"outstanding requests on the k-th most-loaded node this tick")
			fo.laggardNode[k] = reg.Gauge(
				fmt.Sprintf(`krisp_fleet_node_laggard_node{rank="%d"}`, k),
				"node id holding the k-th laggard rank this tick (-1 when unranked)")
		}
	}
	if fo.tracer != nil {
		fo.tracer.NameProcess(fleetPid, "fleet")
		fo.tracer.NameThread(fleetPid, fleetTidRouter, "router")
		fo.tracer.NameThread(fleetPid, fleetTidGateway, "gateway")
		fo.tracer.NameThread(fleetPid, fleetTidScaler, "autoscaler")
	}
	if !o.enabled() {
		return fo
	}
	if tenants < 1 {
		tenants = 1
	}
	fo.flight = telemetry.NewFlightRecorder(o.FlightCap)
	if o.SampleEvery > 0 {
		fo.sampleEvery = uint64(o.SampleEvery)
		fo.byID = make(map[uint64]*telemetry.Journey)
	}
	if o.Monitors {
		cfg := burnDefaults(o.Burn, tick)
		fo.monitors = make([]*telemetry.BurnMonitor, len(modelNames))
		for i, name := range modelNames {
			fo.monitors[i] = telemetry.NewBurnMonitor(name, cfg)
			fo.monitors[i].Bind(reg)
		}
	}
	if reg != nil && fo.sampleEvery > 0 {
		fo.stage = make([][][telemetry.NumStages]*telemetry.Histogram, len(modelNames))
		for mi, name := range modelNames {
			fo.stage[mi] = make([][telemetry.NumStages]*telemetry.Histogram, tenants)
			for t := 0; t < tenants; t++ {
				for s := 0; s < telemetry.NumStages; s++ {
					fo.stage[mi][t][s] = reg.Histogram(
						fmt.Sprintf(`krisp_stage_%s_us{model="%s",tenant="%d"}`, telemetry.StageNames[s], name, t),
						"per-stage request latency attribution (sampled journeys)",
						telemetry.LatencyBucketsUs())
				}
			}
		}
	}
	if fo.tracer != nil && fo.sampleEvery > 0 {
		for t := 0; t < tenants; t++ {
			fo.tracer.NameProcess(journeyPidBase+t, fmt.Sprintf("tenant %d journeys", t))
			for mi, name := range modelNames {
				fo.tracer.NameThread(journeyPidBase+t, mi, name)
			}
		}
	}
	return fo
}

// journeysOn reports whether sends need request identities for journey
// tracking (nil-safe; the router's one extra branch on the hot path).
func (o *fleetObserver) journeysOn() bool { return o != nil && o.sampleEvery > 0 }

// sampled reports whether the request id falls in the sample.
func (o *fleetObserver) sampled(id uint64) bool {
	return o.sampleEvery > 0 && id%o.sampleEvery == 0
}

// onSend stamps a sampled request's admit boundary as it leaves the router
// for a replica. T[0] is the true arrival; T[1] the router-phase clock, so
// the admit stage folds in admission, rate-limit, and router-queue wait.
// Every send also drops a route instant on the fleet track.
func (o *fleetObserver) onSend(id uint64, m *modelState, h *replicaHandle, tenant int, arrival, now sim.Time) {
	if o == nil {
		return
	}
	o.traceRoute(now, h.id)
	if !o.sampled(id) {
		return
	}
	j := o.pool.Get()
	j.ID = id
	j.Model = m.index
	j.Tenant = tenant
	j.Replica = h.id
	j.ModelName = m.name
	j.T[0] = int64(arrival)
	send := now
	if arrival > send {
		send = arrival // same-tick sends leave at their arrival instant
	}
	j.T[1] = int64(send)
	o.byID[id] = j
}

// onCopy flags a tracked journey when the gateway sends a secondary copy:
// hedges mark the journey hedged; retries move it to the new replica.
func (o *fleetObserver) onCopy(id uint64, replica int, kind gateway.CopyKind) {
	if o == nil || o.byID == nil {
		return
	}
	j, ok := o.byID[id]
	if !ok {
		return
	}
	switch kind {
	case gateway.CopyHedge:
		j.Hedged = true
	case gateway.CopyRetry:
		j.Retried = true
		j.Replica = replica
	}
}

// onWinner closes out one served request: the monitor sees the outcome, and
// a sampled journey takes its node-side stamps from the winning copy's
// completion and retires.
func (o *fleetObserver) onWinner(m *modelState, h *replicaHandle, c server.Completion, sloViolated bool) {
	if o == nil {
		return
	}
	if m.index < len(o.monitors) {
		o.monitors[m.index].Observe(int64(c.End), sloViolated)
	}
	if o.byID == nil {
		return
	}
	j, ok := o.byID[c.ID]
	if !ok {
		return
	}
	delete(o.byID, c.ID)
	j.Replica = h.id
	j.T[2] = int64(c.Enqueued)
	j.T[3] = int64(c.BatchStart)
	j.T[4] = int64(c.KernelStart)
	j.T[5] = int64(c.KernelEnd)
	j.T[6] = int64(c.End)
	j.Outcome = telemetry.JourneyCompleted
	j.SLOViolated = sloViolated
	o.retire(j)
}

// onShed records one shed request (router reject, queue shed, or gateway
// admission shed): a bad monitor observation, plus — sheds carry no request
// id — a dedicated sampling counter deciding whether the shed becomes a
// flight-recorder journey.
func (o *fleetObserver) onShed(m *modelState, tenant int, arrival, now sim.Time) {
	if o == nil {
		return
	}
	if m.index < len(o.monitors) {
		o.monitors[m.index].Observe(int64(now), true)
	}
	if o.sampleEvery == 0 {
		return
	}
	o.shedSeq++
	if o.shedSeq%o.sampleEvery != 0 {
		return
	}
	j := o.pool.Get()
	j.Model = m.index
	j.Tenant = tenant
	j.Replica = -1
	j.ModelName = m.name
	j.T[0] = int64(arrival)
	j.T[1] = int64(now)
	j.Outcome = telemetry.JourneyShed
	o.retire(j)
}

// onReplicaDown accounts a replica lost to a node fault: failed requests
// burn the model's error budget, and tracked journeys on the replica are
// marked fault-touched. Without a gateway every outstanding journey on the
// replica is dead — finish them now; with one, retries may still rescue
// them, so the final disposition waits for completion or the run-end sweep.
func (o *fleetObserver) onReplicaDown(m *modelState, h *replicaHandle, now sim.Time, failed int, gatewayMode bool) {
	if o == nil {
		return
	}
	if m.index < len(o.monitors) {
		for i := 0; i < failed; i++ {
			o.monitors[m.index].Observe(int64(now), true)
		}
	}
	if o.byID == nil {
		return
	}
	o.idBuf = o.idBuf[:0]
	for id, j := range o.byID {
		if j.Replica == h.id {
			o.idBuf = append(o.idBuf, id)
		}
	}
	sort.Slice(o.idBuf, func(a, b int) bool { return o.idBuf[a] < o.idBuf[b] })
	for _, id := range o.idBuf {
		j := o.byID[id]
		j.FaultTouched = true
		if !gatewayMode {
			delete(o.byID, id)
			j.Outcome = telemetry.JourneyFailed
			o.retire(j)
		}
	}
}

// onTick runs once per tick, after routing: it advances every monitor's
// windows to the tick clock and, with a registry, samples the replica
// gauges, the aggregated depth histogram and the top-K laggard ranking,
// then publishes the fleet's totals.
func (o *fleetObserver) onTick(f *Fleet) {
	if o == nil {
		return
	}
	for _, m := range o.monitors {
		m.Advance(int64(f.now))
	}
	if o.nodesUp == nil {
		return
	}
	for i, m := range f.router.models {
		live := 0
		for _, h := range m.replicas {
			if !h.draining {
				live++
			}
		}
		o.replicas[i].Set(int64(live))
	}
	// One aggregated depth observation per up node, plus a top-K laggard
	// ranking (outstanding descending, node id ascending on ties — the
	// strict > keeps the earlier node ahead when depths are equal).
	var lagIDs, lagDepths [laggardK]int
	lagN, up := 0, 0
	for _, n := range f.nodes {
		if !n.up {
			continue
		}
		up++
		outstanding := 0
		for _, h := range n.handles {
			outstanding += h.outstanding
		}
		o.queueDepth.Observe(float64(outstanding))
		i := lagN
		for i > 0 && outstanding > lagDepths[i-1] {
			i--
		}
		if i < laggardK {
			end := lagN
			if end == laggardK {
				end = laggardK - 1
			}
			for j := end; j > i; j-- {
				lagDepths[j], lagIDs[j] = lagDepths[j-1], lagIDs[j-1]
			}
			lagDepths[i], lagIDs[i] = outstanding, n.id
			if lagN < laggardK {
				lagN++
			}
		}
	}
	for k := 0; k < laggardK; k++ {
		if k < lagN {
			o.laggardDepth[k].Set(int64(lagDepths[k]))
			o.laggardNode[k].Set(int64(lagIDs[k]))
			continue
		}
		o.laggardDepth[k].Set(0)
		o.laggardNode[k].Set(-1)
	}
	o.nodesUp.Set(int64(up))
	o.publish(f)
}

// publish adds the growth of each tally the fleet keeps for Result to its
// krisp_fleet_*_total counter.
func (o *fleetObserver) publish(f *Fleet) {
	var routed, rejected, completed, slo int
	for _, m := range f.router.models {
		routed += m.routed
		rejected += m.rejected
		completed += m.completed
		slo += m.sloViolations
	}
	o.routed.publish(routed)
	o.rejected.publish(rejected)
	o.completed.publish(completed)
	o.sloViolations.publish(slo)
	o.failed.publish(f.res.Failed)
	o.migrations.publish(f.res.Migrations)
	o.resizes.publish(f.res.Resizes)
	o.drains.publish(f.res.Drains)
	o.nodeFaults.publish(f.res.NodeFaults)
}

// traceRoute drops a route-decision instant on the fleet track.
func (o *fleetObserver) traceRoute(now sim.Time, replica int) {
	if o != nil && o.tracer != nil {
		o.tracer.Instant("fleet", "route", fleetPid, fleetTidRouter, float64(now), "replica", float64(replica))
	}
}

// onScale drops an autoscaler action instant (resize/migrate/drain) on the
// fleet track, tagged with the acting replica's id.
func (o *fleetObserver) onScale(now sim.Time, action string, replica int) {
	if o != nil && o.tracer != nil {
		o.tracer.Instant("fleet", action, fleetPid, fleetTidScaler, float64(now), "replica", float64(replica))
	}
}

// onNodeFault drops a node-down or node-up instant on the fleet track.
func (o *fleetObserver) onNodeFault(now sim.Time, kind string, node int) {
	if o != nil && o.tracer != nil {
		o.tracer.Instant("fleet", kind, fleetPid, fleetTidScaler, float64(now), "node", float64(node))
	}
}

// retire finishes a journey: stage histograms, the per-tenant trace track,
// the flight recorder when anomalous, then back to the pool.
func (o *fleetObserver) retire(j *telemetry.Journey) {
	if o.stage != nil && j.Model < len(o.stage) {
		hists := o.stage[j.Model]
		t := j.Tenant
		if t < 0 || t >= len(hists) {
			t = 0
		}
		for s := 0; s < telemetry.NumStages; s++ {
			if d := j.StageUs(s); d >= 0 {
				hists[t][s].Observe(float64(d))
			}
		}
	}
	if o.tracer != nil {
		pid := journeyPidBase + j.Tenant
		for s := 0; s < telemetry.NumStages; s++ {
			if j.T[s] >= 0 && j.T[s+1] >= 0 {
				o.tracer.SpanArg("journey", telemetry.StageNames[s], pid, j.Model,
					float64(j.T[s]), float64(j.T[s+1]), "id", float64(j.ID))
			}
		}
	}
	if j.Anomalous() {
		o.flight.Record(j)
	}
	o.pool.Put(j)
}

// finishRun sweeps journeys still live at the end of the run (fault-touched
// ones failed; the rest simply never completed inside the horizon), takes a
// final monitor reading, publishes the fleet's final totals — finish has
// folded the requests still queued into the rejected tallies — and, when
// Obs is enabled on the process-wide registry, publishes the SLO board and
// flight recorder for the debug endpoints.
func (o *fleetObserver) finishRun(f *Fleet) {
	if o == nil {
		return
	}
	if o.byID != nil {
		o.idBuf = o.idBuf[:0]
		for id := range o.byID {
			o.idBuf = append(o.idBuf, id)
		}
		sort.Slice(o.idBuf, func(a, b int) bool { return o.idBuf[a] < o.idBuf[b] })
		for _, id := range o.idBuf {
			j := o.byID[id]
			delete(o.byID, id)
			if j.FaultTouched {
				j.Outcome = telemetry.JourneyFailed
				o.retire(j)
				continue
			}
			o.pool.Put(j) // still in flight at the horizon: not an anomaly
		}
	}
	for _, m := range o.monitors {
		m.Advance(int64(f.cfg.Duration))
	}
	o.publish(f)
	if o.flight != nil && f.cfg.Telemetry.Registry() == telemetry.Default() {
		telemetry.DefaultBoard().Publish(o.statuses())
		telemetry.SetDefaultFlight(o.flight)
	}
}

// statuses snapshots every monitor (empty without monitors).
func (o *fleetObserver) statuses() []telemetry.SLOStatus {
	if o == nil || len(o.monitors) == 0 {
		return nil
	}
	out := make([]telemetry.SLOStatus, 0, len(o.monitors))
	for _, m := range o.monitors {
		out = append(out, m.Status())
	}
	return out
}
