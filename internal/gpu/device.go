package gpu

import (
	"fmt"
	"math"
	"math/bits"

	"krisp/internal/sim"
)

// KernelWork is the device-level description of one kernel dispatch: how
// much work it carries and how that work responds to CU allocation. Higher
// layers (internal/kernels) attach names, families, and sizes; the device
// only needs these numbers.
type KernelWork struct {
	// Workgroups is the total number of workgroups (thread blocks) in the
	// kernel's grid.
	Workgroups int
	// ThreadsPerWG is the workgroup size in threads. It does not affect
	// timing directly (the WGTime already accounts for it) but is tracked
	// for kernel-size reporting (Fig. 6a).
	ThreadsPerWG int
	// WGTime is the execution time of a single workgroup occupying one
	// workgroup slot, in virtual microseconds.
	WGTime sim.Duration
	// MemBytes is the total DRAM traffic of the kernel in bytes. Kernels
	// with high MemBytes become bandwidth-bound and tolerate CU
	// restriction (the paper's Fig. 6 observation that thread count alone
	// does not predict the minimum required CUs).
	MemBytes float64
	// Tail is a fixed serial epilogue (drain, final reduction) added to
	// every execution, in microseconds.
	Tail sim.Duration
	// WaveExponent controls how gracefully the kernel degrades when it
	// runs more waves than its single-wave knee: execution time scales as
	// waves^WaveExponent. 0 means 1.0 (linear, the worst case). Real
	// compute kernels land around 0.6-0.8 because deeper per-CU queues
	// improve latency hiding — this is what lets a 55-CU kernel survive
	// on a 15-CU partition with ~2.5x (not 4x) slowdown, as the paper's
	// SLO results imply.
	WaveExponent float64
}

// Threads returns the total thread count of the dispatch (Fig. 6a x-axis).
func (w KernelWork) Threads() int { return w.Workgroups * w.ThreadsPerWG }

// DeviceSpec captures the fixed hardware parameters of the simulated GPU.
type DeviceSpec struct {
	Topo Topology
	// SlotsPerCU is the number of workgroups a CU can execute
	// concurrently. The MI50's 2560 threads/CU with 256-thread workgroups
	// gives 10 slots.
	SlotsPerCU int
	// MemBandwidth is the device DRAM bandwidth in bytes per microsecond
	// (1 TB/s == 1e6 bytes/us).
	MemBandwidth float64
	// InterferenceTax scales the cost of oversubscribing a CU's issue
	// capacity: when the total compute pressure P on a CU exceeds 1.0
	// (saturation), every workgroup on it stretches by an extra
	// (1+InterferenceTax) x (P-1). Sharing is cheap while the machine has
	// slack — the premise that makes co-location attractive — and
	// destructively expensive once saturated, which is why isolation
	// (KRISP-I) outperforms free sharing at high worker counts.
	InterferenceTax float64
	// ShareTax is the baseline cost of co-location even below
	// saturation: every unit of co-runner compute pressure on a kernel's
	// CUs stretches it by ShareTax (cache thrash, scheduler
	// interference). Zero would make unsaturated sharing literally free,
	// which real hardware never is.
	ShareTax float64
	// HBMBytes is the device memory capacity in bytes. It bounds the
	// KV-cache ledger (ReserveKV/FreeKV) used by autoregressive serving;
	// zero means no KV budget is enforced, which keeps every pre-existing
	// spec literal behaving exactly as before.
	HBMBytes float64
}

// MI50Spec approximates the AMD MI50: 60 CUs, 10 workgroup slots per CU,
// 1 TB/s HBM2 bandwidth.
func MI50Spec() DeviceSpec {
	return DeviceSpec{
		Topo:            MI50,
		SlotsPerCU:      10,
		MemBandwidth:    1.0e6, // 1 TB/s in bytes/us
		InterferenceTax: 1.0,
		ShareTax:        0.25,
		HBMBytes:        32e9, // 32 GB HBM2
	}
}

// MI100Spec approximates the AMD MI100: 120 CUs and 1.23 TB/s HBM2.
func MI100Spec() DeviceSpec {
	return DeviceSpec{
		Topo:            MI100,
		SlotsPerCU:      10,
		MemBandwidth:    1.23e6,
		InterferenceTax: 1.0,
		ShareTax:        0.25,
		HBMBytes:        32e9, // 32 GB HBM2
	}
}

// Meter observes device activity state changes; internal/energy implements
// it to integrate power over virtual time. busyCUs is the number of CUs
// with at least one kernel assigned, kernels the number of kernels
// currently executing.
type Meter interface {
	ObserveState(now sim.Time, busyCUs, kernels int)
}

// Exec is one kernel execution in flight on the device.
type Exec struct {
	work   KernelWork
	mask   CUMask
	onDone func()

	remaining  float64 // fraction of the kernel still to execute, 1 → 0
	curTotal   sim.Duration
	lastUpdate sim.Time
	done       *sim.Event
	id         uint64
	// runIdx is this execution's slot in the device's running slice, kept
	// current by swap-removal so membership updates stay O(1).
	runIdx int
	// pressure is this kernel's per-CU compute pressure contribution,
	// fixed at dispatch; memIntensity its bandwidth demand weight.
	pressure     float64
	memIntensity float64
	// completeFn is the cached completion closure scheduled on the engine;
	// created once per Exec object and reused across free-list recycles so
	// steady-state launches allocate nothing.
	completeFn func()
	// waveRow is this Exec's row in the device's wave-cost slab: NumSEs
	// static per-SE costs and mask slices, set at launch (see
	// setWaveCosts). The row is claimed once per Exec object and kept
	// across recycles.
	waveRow int
	// compute caches the contended compute time (worst SE's wave cost x
	// WGTime); computeOK is cleared whenever an input to it may have
	// changed (see the retime cache invariant on retime).
	compute   sim.Duration
	computeOK bool
}

// Mask returns the CU mask this execution was dispatched with.
func (x *Exec) Mask() CUMask { return x.mask }

// Device simulates kernel execution over the SE/CU topology. All methods
// must be called from the simulation goroutine.
type Device struct {
	Spec DeviceSpec

	eng *sim.Engine
	// running holds the in-flight executions as a dense slice (launch
	// order, perturbed by swap-removal on completion). retime walks it on
	// every launch and completion, so it must iterate like an array, not a
	// map — and slice order is deterministic, where map order is not.
	running []*Exec
	// planes are the per-CU kernel counters of the Resource Monitor,
	// bit-sliced: bit cu of planes[j] is bit j of the number of running
	// kernels whose mask includes CU cu. A launch adds its mask with a
	// word-level ripple carry and a completion subtracts it with a ripple
	// borrow, so the counters cost a few word ops per footprint change
	// instead of a walk over the mask's CUs. occupied is the planes' OR:
	// the CUs with at least one kernel assigned.
	planes   []CUMask
	occupied CUMask
	// counters is the []int view of the planes that Algorithm 1 reads,
	// built on demand and valid while countersGen == gen.
	counters    []int
	countersGen uint64
	// healthy tracks the CUs still alive; allHealthy short-circuits the
	// per-launch health intersection while no CU has been killed, so the
	// fault-free path stays bit-identical to a device without the health
	// machinery.
	healthy    CUMask
	allHealthy bool
	// degrade holds each CU's extra execution stretch (0 = full speed); a
	// degraded CU slows every workgroup wave scheduled on its shader
	// engine's enabled set proportionally. numDegraded gates the cost.
	degrade     []float64
	numDegraded int
	// pressure is the per-CU sum of the running kernels' compute pressure
	// (occupancy x compute-boundedness). It drives the contention model:
	// a low-occupancy or bandwidth-bound co-runner barely disturbs a CU,
	// which is exactly the fine-grain under-utilization KRISP harvests.
	pressure []float64
	// memPressure is the sum of running kernels' memory intensity — the
	// demand weight dividing DRAM bandwidth.
	memPressure float64
	meter       Meter
	nextID      uint64
	// gen is the occupancy generation: it advances on every footprint
	// change (chargeExec, releaseExec) and on Reset, so mask caches keyed
	// on it can prove an occupancy state unchanged without comparing
	// counter arrays.
	gen uint64
	// execFree recycles completed Exec objects so steady-state launches
	// allocate nothing.
	execFree []*Exec
	// waveSlab backs every Exec's static per-SE costs, NumSEs entries per
	// Exec (Exec.waveRow).
	waveSlab []seCost
	// seMemo holds each SE's last co-runner pressure sum, keyed by
	// (gen, seBits), so co-runners sharing an SE slice sum it once per
	// occupancy state.
	seMemo []pressureMemo
	// tel, when non-nil, receives occupancy/launch/health telemetry. The
	// handles inside are resolved once at construction (see telemetry.go);
	// with telemetry disabled this stays nil and costs one check per
	// charge/release.
	tel *Telemetry

	// busyIntegral accumulates busyCUs x time for utilization reporting.
	busyIntegral float64
	lastBusyAt   sim.Time
	lastBusyCUs  int

	// kvCapacity/kvInUse are the KV-cache ledger for autoregressive
	// serving: replicas reserve bytes at sequence admission and per decoded
	// token, and free them when sequences retire or are preempted.
	// kvCapacity <= 0 disables the ledger (every reservation succeeds), so
	// devices built from pre-LLM spec literals are unchanged.
	kvCapacity float64
	kvInUse    float64
}

// NewDevice creates a device bound to the simulation engine. meter may be
// nil when energy accounting is not needed.
func NewDevice(eng *sim.Engine, spec DeviceSpec, meter Meter) *Device {
	if err := spec.Topo.Validate(); err != nil {
		panic(err)
	}
	if spec.SlotsPerCU <= 0 {
		panic("gpu: SlotsPerCU must be positive")
	}
	if spec.MemBandwidth <= 0 {
		panic("gpu: MemBandwidth must be positive")
	}
	return &Device{
		Spec:       spec,
		eng:        eng,
		counters:   make([]int, spec.Topo.TotalCUs()),
		pressure:   make([]float64, spec.Topo.TotalCUs()),
		healthy:    FullMask(spec.Topo),
		allHealthy: true,
		degrade:    make([]float64, spec.Topo.TotalCUs()),
		meter:      meter,
		kvCapacity: spec.HBMBytes,
	}
}

// KVCapacity returns the KV budget in bytes (<= 0: unenforced).
func (d *Device) KVCapacity() float64 { return d.kvCapacity }

// KVInUse returns the bytes currently reserved.
func (d *Device) KVInUse() float64 { return d.kvInUse }

// ReserveKV claims bytes from the KV budget, reporting whether they fit.
// Admission at exact capacity succeeds — the ledger refuses only requests
// that would exceed the budget.
func (d *Device) ReserveKV(bytes float64) bool {
	if d.kvCapacity > 0 && d.kvInUse+bytes > d.kvCapacity {
		return false
	}
	d.kvInUse += bytes
	return true
}

// FreeKV returns bytes to the KV budget.
func (d *Device) FreeKV(bytes float64) {
	d.kvInUse -= bytes
	if d.kvInUse < 0 {
		d.kvInUse = 0
	}
}

// HealthMask returns the bitmap of CUs still alive.
func (d *Device) HealthMask() CUMask { return d.healthy }

// AllHealthy reports whether no CU has been killed.
func (d *Device) AllHealthy() bool { return d.allHealthy }

// DegradedCUs returns the number of CUs currently running degraded.
func (d *Device) DegradedCUs() int { return d.numDegraded }

// KillCU permanently removes a CU from service: the health bitmap drops
// it, in-flight executions whose mask includes it are re-masked onto their
// surviving CUs (falling back to the whole healthy set when nothing
// survives) and re-timed, and future launches are intersected with the
// health bitmap. The last healthy CU can never be killed — the device
// refuses (returns false) so the simulation always retains a making-
// progress path.
func (d *Device) KillCU(cu int) bool {
	if cu < 0 || cu >= d.Spec.Topo.TotalCUs() || !d.healthy.Has(cu) {
		return false
	}
	if d.healthy.Count() == 1 {
		return false
	}
	d.accumulateBusy()
	d.healthy = d.healthy.Clear(cu)
	d.allHealthy = false
	if t := d.tel; t != nil {
		t.CUKills.Inc()
		t.HealthyCUs.Set(int64(d.healthy.Count()))
	}
	for _, x := range d.running {
		if !x.mask.Has(cu) {
			continue
		}
		// Release the old footprint, shrink the mask around the dead CU,
		// and charge the new footprint.
		d.releaseExec(x.mask, x.pressure)
		d.memPressure -= x.memIntensity
		nm := x.mask.And(d.healthy)
		if nm.IsEmpty() {
			nm = d.healthy
		}
		x.mask = nm
		x.pressure, x.memIntensity = d.pressureOf(x.work, nm)
		d.setWaveCosts(x)
		d.chargeExec(nm, x.pressure)
		d.memPressure += x.memIntensity
	}
	d.retime()
	d.observe()
	return true
}

// SetCUDegrade sets a CU's extra execution stretch: 0 restores full speed,
// 1.0 roughly doubles the cost of waves scheduled over it. Running kernels
// are re-timed immediately.
func (d *Device) SetCUDegrade(cu int, stretch float64) {
	if cu < 0 || cu >= len(d.degrade) || stretch < 0 {
		return
	}
	was, now := d.degrade[cu] > 0, stretch > 0
	if was == now && d.degrade[cu] == stretch {
		return
	}
	d.accumulateBusy()
	d.degrade[cu] = stretch
	switch {
	case now && !was:
		d.numDegraded++
	case was && !now:
		d.numDegraded--
	}
	for _, x := range d.running {
		x.computeOK = false
	}
	d.retime()
}

// KernelCount returns the number of kernels currently assigned to CU cu —
// the per-CU kernel counter KRISP's Resource Monitor exposes to the
// allocator (Algorithm 1's CU_Kernel_Counters).
func (d *Device) KernelCount(cu int) int { return d.CountersView()[cu] }

// CountersView returns the per-CU kernel counters without copying — the
// zero-allocation Resource Monitor read the dispatch fast path uses. The
// slice is owned by the device and is rebuilt from the bit-sliced counters
// at most once per occupancy generation: callers must not mutate it, and
// it holds the counters of the generation it was read at only until the
// next occupancy change (use OccupancyGen to detect staleness).
func (d *Device) CountersView() []int {
	if d.countersGen != d.gen {
		clear(d.counters)
		for j, p := range d.planes {
			for w := p.lo; w != 0; w &= w - 1 {
				d.counters[bits.TrailingZeros64(w)] += 1 << j
			}
			for w := p.hi; w != 0; w &= w - 1 {
				d.counters[64+bits.TrailingZeros64(w)] += 1 << j
			}
		}
		d.countersGen = d.gen
	}
	return d.counters
}

// OccupancyGen returns the occupancy generation counter; it changes on
// every launch, completion and re-mask footprint change, so it changes
// whenever any per-CU kernel counter does.
func (d *Device) OccupancyGen() uint64 { return d.gen }

// Running returns the number of kernels currently executing.
func (d *Device) Running() int { return len(d.running) }

// BusyCUs returns the number of CUs with at least one kernel assigned.
func (d *Device) BusyCUs() int { return d.occupied.Count() }

// kernelPlanes is how many counter planes a device starts with: enough to
// count 15 kernels on one CU. A deeper stack grows the planes on demand.
const kernelPlanes = 4

// chargeExec adds one execution's footprint to the CUs enabled in m: one
// to each CU's kernel counter and pressure to its compute pressure.
func (d *Device) chargeExec(m CUMask, pressure float64) {
	d.gen++
	d.invalidateOverlapping(m)
	// Ripple-carry m into the counter planes.
	carry := m
	for j := 0; !carry.IsEmpty(); j++ {
		if j == len(d.planes) {
			d.planes = append(d.planes, carry)
			break
		}
		p := d.planes[j]
		d.planes[j] = p.xor(carry)
		carry = p.And(carry)
	}
	d.occupied = d.occupied.Or(m)
	for w := m.lo; w != 0; w &= w - 1 {
		d.pressure[bits.TrailingZeros64(w)] += pressure
	}
	for w := m.hi; w != 0; w &= w - 1 {
		d.pressure[64+bits.TrailingZeros64(w)] += pressure
	}
	d.publishOccupancy()
}

// releaseExec undoes chargeExec for a finished or re-masked execution.
func (d *Device) releaseExec(m CUMask, pressure float64) {
	d.gen++
	d.invalidateOverlapping(m)
	// Ripple-borrow m out of the counter planes; a borrow out of the top
	// plane means some CU in m had no kernel to release.
	borrow := m
	for j := 0; !borrow.IsEmpty(); j++ {
		if j == len(d.planes) {
			panic("gpu: per-CU kernel counter went negative")
		}
		p := d.planes[j]
		d.planes[j] = p.xor(borrow)
		borrow = borrow.AndNot(p)
	}
	var occ CUMask
	for _, p := range d.planes {
		occ = occ.Or(p)
	}
	d.occupied = occ
	for w := m.lo; w != 0; w &= w - 1 {
		d.releaseCU(bits.TrailingZeros64(w), pressure)
	}
	for w := m.hi; w != 0; w &= w - 1 {
		d.releaseCU(64+bits.TrailingZeros64(w), pressure)
	}
	d.publishOccupancy()
}

// invalidateOverlapping drops the cached compute time of every running
// execution sharing a CU with m: only their pressure sums can change.
func (d *Device) invalidateOverlapping(m CUMask) {
	for _, x := range d.running {
		if x.mask.lo&m.lo != 0 || x.mask.hi&m.hi != 0 {
			x.computeOK = false
		}
	}
}

// releaseCU removes pressure from CU cu, clamping the float drift of an
// add-then-subtract at zero.
func (d *Device) releaseCU(cu int, pressure float64) {
	d.pressure[cu] -= pressure
	if d.pressure[cu] < 0 {
		d.pressure[cu] = 0
	}
}

// AvgBusyCUs returns the time-weighted average number of busy CUs since the
// device was created (or since ResetUtilization).
func (d *Device) AvgBusyCUs() float64 {
	d.accumulateBusy()
	if d.eng.Now() == 0 {
		return 0
	}
	return d.busyIntegral / d.eng.Now()
}

// ResetUtilization clears the busy-CU integral, starting a fresh
// measurement window at the current virtual time.
func (d *Device) ResetUtilization() {
	d.busyIntegral = 0
	d.lastBusyAt = d.eng.Now()
	d.lastBusyCUs = d.BusyCUs()
}

// Reset returns the device to its just-constructed state for engine reuse:
// in-flight executions are detached and recycled (their completion events
// died with the engine's reset), occupancy and pressure state zeroed, and
// CU health restored. The occupancy generation and exec id counters stay
// monotonic — caches keyed on gen can never confuse a pre-reset state with
// a post-reset one, and nothing observes their absolute values — which is
// what lets the exec free list and mask caches survive across runs.
func (d *Device) Reset() {
	for _, x := range d.running {
		x.onDone = nil
		x.done = nil
		x.work = KernelWork{}
		x.mask = CUMask{}
		d.execFree = append(d.execFree, x)
	}
	d.running = d.running[:0]
	clear(d.planes)
	d.occupied = CUMask{}
	clear(d.pressure)
	clear(d.degrade)
	d.numDegraded = 0
	d.memPressure = 0
	d.healthy = FullMask(d.Spec.Topo)
	d.allHealthy = true
	d.gen++
	d.busyIntegral = 0
	d.lastBusyAt = 0
	d.lastBusyCUs = 0
	d.kvInUse = 0
	d.kvCapacity = d.Spec.HBMBytes
}

func (d *Device) accumulateBusy() {
	now := d.eng.Now()
	d.busyIntegral += float64(d.lastBusyCUs) * (now - d.lastBusyAt)
	d.lastBusyAt = now
	d.lastBusyCUs = d.BusyCUs()
}

// Launch begins executing a kernel on the CUs enabled in mask. onDone fires
// (via the simulation engine) when the kernel completes. The mask must be
// non-empty and the work non-trivial.
func (d *Device) Launch(work KernelWork, mask CUMask, onDone func()) *Exec {
	if mask.IsEmpty() {
		panic("gpu: Launch with empty CU mask")
	}
	if work.Workgroups <= 0 {
		panic(fmt.Sprintf("gpu: Launch with %d workgroups", work.Workgroups))
	}
	if !d.allHealthy {
		// Re-mask around dead CUs; a mask with no survivors falls back to
		// the whole healthy set so the launch always makes progress.
		if m := mask.And(d.healthy); m.IsEmpty() {
			mask = d.healthy
		} else {
			mask = m
		}
	}
	d.accumulateBusy()
	if t := d.tel; t != nil {
		t.Launches.Inc()
	}
	d.nextID++
	var x *Exec
	if n := len(d.execFree); n > 0 {
		x = d.execFree[n-1]
		d.execFree[n-1] = nil
		d.execFree = d.execFree[:n-1]
	} else {
		x = d.newExec()
	}
	x.work = work
	x.mask = mask
	x.onDone = onDone
	x.remaining = 1
	x.curTotal = 0
	x.lastUpdate = d.eng.Now()
	x.done = nil
	x.id = d.nextID
	x.pressure, x.memIntensity = d.pressureOf(work, mask)
	d.setWaveCosts(x)
	d.chargeExec(mask, x.pressure)
	d.memPressure += x.memIntensity
	x.runIdx = len(d.running)
	d.running = append(d.running, x)
	d.retime()
	d.observe()
	return x
}

// slabExecs is how many wave-cost rows the slab reserves up front: as many
// Execs as a device usually runs at once, so the slab rarely grows.
const slabExecs = 4

// newExec allocates an Exec and claims its wave-cost row. The slab, the
// pressure memo and the counter planes are allocated with a device's first
// Exec, so devices that never launch (the profiler's) allocate none of them.
func (d *Device) newExec() *Exec {
	nSE := d.Spec.Topo.NumSEs
	if d.waveSlab == nil {
		d.waveSlab = make([]seCost, 0, slabExecs*nSE)
		d.seMemo = make([]pressureMemo, nSE)
		d.planes = make([]CUMask, kernelPlanes)
	}
	x := &Exec{waveRow: len(d.waveSlab)}
	x.completeFn = func() { d.complete(x) }
	d.waveSlab = append(d.waveSlab, make([]seCost, nSE)...)
	return x
}

// complete finishes an execution: releases its CUs, re-times survivors, and
// invokes the completion callback.
func (d *Device) complete(x *Exec) {
	d.accumulateBusy()
	last := len(d.running) - 1
	moved := d.running[last]
	d.running[x.runIdx] = moved
	moved.runIdx = x.runIdx
	d.running[last] = nil
	d.running = d.running[:last]
	d.releaseExec(x.mask, x.pressure)
	d.memPressure -= x.memIntensity
	if d.memPressure < 0 {
		d.memPressure = 0
	}
	d.retime()
	d.observe()
	// Recycle before the callback: the Exec is fully detached from device
	// state, and a callback that immediately launches the next kernel can
	// then reuse the object. The callback runs from a stack copy so the
	// reset cannot clobber it.
	onDone := x.onDone
	x.onDone = nil
	x.done = nil
	x.work = KernelWork{}
	x.mask = CUMask{}
	d.execFree = append(d.execFree, x)
	if onDone != nil {
		onDone()
	}
}

func (d *Device) observe() {
	if d.meter != nil {
		d.meter.ObserveState(d.eng.Now(), d.BusyCUs(), len(d.running))
	}
	if t := d.tel; t != nil {
		t.RunningKernels.Set(int64(len(d.running)))
	}
}

// retime re-evaluates every running kernel's duration under the current
// contention state and reschedules its completion event. This is the
// processor-sharing core: each kernel tracks the fraction of work
// remaining; when conditions change, elapsed progress is banked at the old
// speed and the residue re-timed at the new speed.
//
// Retime cache invariant: x.curTotal always equals duration(x.work,
// x.mask, x.pressure, x.memIntensity) bit for bit, but only the inputs
// that can have moved are recomputed. The per-SE wave costs depend on
// (work, mask, spec) alone and are set at launch and on re-mask. The
// contended compute time depends further only on the degrade table and on
// d.pressure over x's own CUs, so it stays valid until a footprint change
// overlapping x's mask (chargeExec/releaseExec) or a degrade change. The
// memory term reads the device-wide memPressure and is recomputed every
// time. Reused values come from the same operations on the same inputs,
// so the results — and the engine's (at, seq) order — are unchanged.
func (d *Device) retime() {
	now := d.eng.Now()
	for _, x := range d.running {
		// Bank progress at the previous speed.
		if x.curTotal > 0 {
			elapsed := now - x.lastUpdate
			x.remaining -= elapsed / x.curTotal
			if x.remaining < 0 {
				x.remaining = 0
			}
		}
		x.lastUpdate = now
		if !x.computeOK {
			x.compute = d.contendedCompute(x)
			x.computeOK = true
		}
		t := x.compute
		if mem := d.memTime(x.work, false, x.memIntensity); mem > t {
			t = mem
		}
		x.curTotal = t + x.work.Tail
		finish := now + x.remaining*x.curTotal
		switch {
		case x.done == nil:
			x.done = d.eng.At(finish, x.completeFn)
		case x.done.Pending() && x.done.At() == finish:
			// Rescheduling to the same time is a no-op: the event keeps
			// its time and its seq rank either way.
		default:
			x.done = d.eng.Reschedule(x.done, finish)
		}
	}
}

// seCost is one SE's entry in an Exec's wave-cost row: the SE's slice of
// the exec's mask, its popcount, and the static wave cost of the SE's
// share of the workgroups (0 when the SE runs none of them).
type seCost struct {
	wave float64
	bits uint64
	cus  int
}

// setWaveCosts fills x's wave-cost row with the static half of the model:
// each used SE's mask slice and half-wave quantized wave cost for its
// share of the workgroups, which depend only on (work, mask, spec).
func (d *Device) setWaveCosts(x *Exec) {
	topo := d.Spec.Topo
	row := d.waveSlab[x.waveRow : x.waveRow+topo.NumSEs]
	nSE := 0
	for se := range row {
		sb := x.mask.seBits(topo, se)
		row[se] = seCost{bits: sb, cus: bits.OnesCount64(sb)}
		if sb != 0 {
			nSE++
		}
	}
	baseWG, extraWG := x.work.Workgroups/nSE, x.work.Workgroups%nSE
	i := 0
	for se := range row {
		c := &row[se]
		if c.bits == 0 {
			continue
		}
		wgSE := baseWG
		if i < extraWG {
			wgSE++
		}
		i++
		if wgSE > 0 {
			c.wave = waveCost(halfWaves(wgSE, c.cus, d.Spec.SlotsPerCU), x.work.WaveExponent)
		}
	}
	x.computeOK = false
}

// contendedCompute is the dynamic half of duration's compute term for a
// running execution: its static wave costs stretched by CU degradation and
// co-runner pressure, worst SE times WGTime.
func (d *Device) contendedCompute(x *Exec) sim.Duration {
	var worst float64
	for se, c := range d.waveSlab[x.waveRow : x.waveRow+d.Spec.Topo.NumSEs] {
		wc := c.wave
		if wc == 0 {
			continue
		}
		if d.numDegraded > 0 {
			wc = d.degradeStretch(se, c.bits, c.cus, wc)
		}
		wc *= d.contentionStretch(d.memoPressure(se, c.bits), c.cus, x.pressure)
		if wc > worst {
			worst = wc
		}
	}
	return sim.Duration(worst) * x.work.WGTime
}

// pressureMemo is one SE's cached pressure sum (see Device.seMemo).
type pressureMemo struct {
	gen, bits uint64
	sum       float64
}

// memoPressure is sePressure through the per-SE memo. Every change to
// d.pressure advances d.gen, so a key match proves the same adds over the
// same values in the same order — the cached sum is exact.
func (d *Device) memoPressure(se int, sb uint64) float64 {
	m := &d.seMemo[se]
	if m.gen != d.gen || m.bits != sb {
		*m = pressureMemo{gen: d.gen, bits: sb, sum: d.sePressure(se, sb)}
	}
	return m.sum
}

// pressureOf computes a kernel's contention footprint on the mask it was
// granted: its per-CU compute pressure (slot occupancy x
// compute-boundedness — how much of a co-located CU's issue capacity it
// consumes) and its memory intensity (the fraction of its lifetime spent
// saturating DRAM bandwidth). A bandwidth-bound or low-occupancy kernel
// leaves most of the CU usable by others — the fine-grain
// under-utilization the paper targets.
func (d *Device) pressureOf(work KernelWork, mask CUMask) (compute, memIntensity float64) {
	nCUs := mask.Count()
	if nCUs == 0 {
		return 0, 0
	}
	occ := float64(work.Workgroups) / float64(nCUs*d.Spec.SlotsPerCU)
	if occ > 1 {
		occ = 1
	}
	// Solo compute time (average view) vs memory time on this mask.
	waves := math.Ceil(float64(work.Workgroups) / float64(nCUs*d.Spec.SlotsPerCU))
	if waves < 1 {
		waves = 1
	}
	comp := waves * float64(work.WGTime)
	mem := work.MemBytes / d.Spec.MemBandwidth
	intensity := 1.0
	memIntensity = 0
	if comp+mem > 0 {
		intensity = comp / (comp + mem)
		memIntensity = mem / (comp + mem)
	}
	return occ * intensity, memIntensity
}

// Duration computes the solo execution time of work on mask: no CU
// co-location and full memory bandwidth. Exported for profiling and tests.
func (d *Device) Duration(work KernelWork, mask CUMask) sim.Duration {
	return d.duration(work, mask, math.Inf(1), 0)
}

// duration is the full model. ownPressure is the calling kernel's own
// per-CU pressure contribution, subtracted from the device's per-CU
// pressure to leave only co-runners. Pass +Inf to ignore contention (solo
// view).
//
// The model follows observed AMD behaviour (paper §IV-C, [51]):
//
//   - workgroups are split equally across the SEs that have at least one
//     enabled CU — so the least-provisioned SE gates the kernel, which is
//     what produces the Packed-policy spikes at 16/31/46 CUs and the
//     Distributed-policy dips below one full SE (Fig. 8);
//   - within an SE, the workgroup manager dispatches workgroups to CUs as
//     slots free up, so the SE behaves as a pooled set of workgroup
//     slots; execution proceeds in waves of the pooled slots, quantized
//     to half waves, and waves beyond the first cost waves^WaveExponent
//     (latency hiding improves with per-CU queue depth);
//   - co-location is free while the enabled CUs have issue slack; once
//     their aggregate compute pressure exceeds capacity, every workgroup
//     stretches by the oversubscription times (1 + InterferenceTax);
//   - memory-bound kernels are limited by their demand-weighted share of
//     device bandwidth, which is why large kernels can tolerate few CUs
//     (Fig. 6).
func (d *Device) duration(work KernelWork, mask CUMask, ownPressure, ownMem float64) sim.Duration {
	topo := d.Spec.Topo
	// A counting pass and a costing pass over the (at most 8) SEs, with
	// no buffer and no calls that do not inline: duration is the
	// profiler's closed form, evaluated tens of thousands of times per
	// model sweep.
	nSE := usedSEs(mask, topo)
	if nSE == 0 {
		panic("gpu: Duration with empty mask")
	}
	// Workgroups are split equally across the used SEs; the first
	// extraWG of them take one more.
	baseWG, extraWG := work.Workgroups/nSE, work.Workgroups%nSE
	contended := !math.IsInf(ownPressure, 1)

	var worst float64 // waveCost x stretch, worst SE
	i := 0
	for se := 0; se < topo.NumSEs; se++ {
		sb := mask.seBits(topo, se)
		if sb == 0 {
			continue
		}
		wgSE := baseWG
		if i < extraWG {
			wgSE++
		}
		i++
		if wgSE == 0 {
			continue
		}
		a := bits.OnesCount64(sb)
		wc := waveCost(halfWaves(wgSE, a, d.Spec.SlotsPerCU), work.WaveExponent)
		// Gated on numDegraded so the fault-free path performs no extra
		// float work.
		if d.numDegraded > 0 {
			wc = d.degradeStretch(se, sb, a, wc)
		}
		if contended {
			wc *= d.contentionStretch(d.sePressure(se, sb), a, ownPressure)
		}
		if wc > worst {
			worst = wc
		}
	}
	compute := sim.Duration(worst) * work.WGTime

	t := compute
	if mem := d.memTime(work, !contended, ownMem); mem > t {
		t = mem
	}
	return t + work.Tail
}

// usedSEs counts the SEs with at least one CU enabled in mask.
func usedSEs(mask CUMask, topo Topology) (n int) {
	for se := range topo.NumSEs {
		if mask.seBits(topo, se) != 0 {
			n++
		}
	}
	return n
}

// halfWaves is the number of waves wgSE workgroups take on a CUs of one
// SE: within an SE the workgroup manager pools the enabled CUs' slots, so
// execution proceeds in waves of a*slots. Half-wave quantization keeps
// the single-wave knee sharp (the minCU phenomenon) while letting deep
// restriction degrade in steps.
func halfWaves(wgSE, a, slots int) float64 {
	waves := float64(wgSE) / float64(a*slots)
	wq := math.Ceil(2*waves) / 2
	if wq < 1 {
		wq = 1
	}
	return wq
}

// waveCost is the static per-SE cost of wq waves: waves beyond the first
// cost waves^exponent (latency hiding improves with per-CU queue depth),
// and 0 means linear. It and halfWaves inline into the profiler's closed
// form; exponent 1 needs no test of its own, as Pow(wq, 1) is wq exactly.
func waveCost(wq, exponent float64) float64 {
	if exponent > 0 && wq > 1 {
		return math.Pow(wq, exponent)
	}
	return wq
}

// degradeStretch slows the waves scheduled across SE se's enabled set sb
// (a CUs) in proportion to how much of the set is degraded.
func (d *Device) degradeStretch(se int, sb uint64, a int, wc float64) float64 {
	sumDeg := 0.0
	base := se * d.Spec.Topo.CUsPerSE
	for w := sb; w != 0; w &= w - 1 {
		sumDeg += d.degrade[base+bits.TrailingZeros64(w)]
	}
	if sumDeg > 0 {
		wc *= 1 + sumDeg/float64(a)
	}
	return wc
}

// sePressure sums the per-CU compute pressure over SE se's enabled set sb,
// in ascending CU order.
func (d *Device) sePressure(se int, sb uint64) float64 {
	sumP := 0.0
	base := se * d.Spec.Topo.CUsPerSE
	for w := sb; w != 0; w &= w - 1 {
		sumP += d.pressure[base+bits.TrailingZeros64(w)]
	}
	return sumP
}

// contentionStretch is the co-location cost on a set of a CUs whose
// pressures sum to sumP: co-runners always cost a little (cache and
// scheduler interference, ShareTax), and once the set's average compute
// pressure exceeds capacity the oversubscribed fraction costs fully plus
// the interference tax.
func (d *Device) contentionStretch(sumP float64, a int, ownPressure float64) float64 {
	avgP := sumP / float64(a)
	other := avgP - ownPressure
	if other < 0 {
		other = 0
	}
	stretch := 1 + d.Spec.ShareTax*other
	if avgP > 1 {
		stretch += (1 + d.Spec.InterferenceTax) * (avgP - 1)
	}
	return stretch
}

// memTime is the memory-bound time of work. Bandwidth is shared in
// proportion to memory intensity: a compute-bound co-runner barely dents a
// streaming kernel's bandwidth, while two streaming kernels halve each
// other's. solo ignores co-runners (full bandwidth).
func (d *Device) memTime(work KernelWork, solo bool, ownMem float64) sim.Duration {
	if !(work.MemBytes > 0) {
		return 0
	}
	demand := 1.0
	if !solo {
		if others := d.memPressure - ownMem; others > 0 {
			demand += others
		}
	}
	return work.MemBytes * demand / d.Spec.MemBandwidth
}

// IsolatedDuration is Duration on an otherwise-idle device: no CU sharing
// and full memory bandwidth. It is the closed form the profiler uses, so
// minCU searches do not need event simulation.
func (d *Device) IsolatedDuration(work KernelWork, mask CUMask) sim.Duration {
	if d.Running() != 0 {
		panic("gpu: IsolatedDuration called while kernels are running")
	}
	return d.Duration(work, mask)
}
