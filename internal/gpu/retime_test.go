package gpu

import (
	"math"
	"math/rand"
	"testing"

	"krisp/internal/sim"
)

// opReader decodes a fuzz input into operation parameters, yielding zeros
// once the input is exhausted.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *opReader) u16() int { return int(r.byte())<<8 | int(r.byte()) }

func (r *opReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

// checkOccupancy compares the device's bit-sliced kernel counters —
// through CountersView, KernelCount and BusyCUs — with a per-CU recount of
// the running executions' masks.
func checkOccupancy(t testing.TB, d *Device, step int) {
	t.Helper()
	want := make([]int, d.Spec.Topo.TotalCUs())
	for _, x := range d.running {
		for _, cu := range x.mask.CUs() {
			want[cu]++
		}
	}
	view := d.CountersView()
	busy := 0
	for cu, n := range want {
		if view[cu] != n || d.KernelCount(cu) != n {
			t.Fatalf("step %d: CU %d counter view %d, KernelCount %d, recount %d", step, cu, view[cu], d.KernelCount(cu), n)
		}
		if n > 0 {
			busy++
		}
	}
	if d.BusyCUs() != busy {
		t.Fatalf("step %d: BusyCUs %d, recount %d", step, d.BusyCUs(), busy)
	}
}

// driveRetime replays ops — launches, completions, CU kills and degrade
// changes — on a fresh device and, after every operation, checks each
// running execution's incrementally maintained duration and pending
// finish time against a from-scratch duration, bit for bit, and the
// kernel counters against a recount. The occupancy generation must move
// exactly when a footprint changes: on a launch, a completion, or a kill
// that re-masks a running execution.
func driveRetime(t testing.TB, spec DeviceSpec, ops []byte) {
	eng := sim.New()
	d := NewDevice(eng, spec, nil)
	full := FullMask(spec.Topo)
	total := spec.Topo.TotalCUs()
	exponents := [...]float64{0, 0.65, 1, 0.8}
	stretches := [...]float64{0, 0.5, 1, 3}
	r := &opReader{data: ops}
	for step := 0; r.pos < len(r.data); step++ {
		gen, running := d.OccupancyGen(), d.Running()
		footprint := false
		switch op := r.byte() % 8; {
		case op < 4 && d.Running() < 12:
			mask := CUMask{lo: r.u64(), hi: r.u64()}.And(full)
			if mask.IsEmpty() {
				mask = mask.Set(int(r.byte()) % total)
			}
			work := KernelWork{
				Workgroups:   r.u16()%20000 + 1,
				ThreadsPerWG: 256,
				WGTime:       sim.Duration(r.u16()%1000)/10 + 0.1,
				Tail:         sim.Duration(r.byte()%4) / 2,
				WaveExponent: exponents[r.byte()%4],
			}
			if r.byte()%2 == 1 {
				work.MemBytes = float64(r.u16()) * 1e3
			}
			d.Launch(work, mask, nil)
			footprint = true
		case op < 6:
			eng.Step()
			footprint = d.Running() < running
		case op == 6:
			cu := int(r.byte()) % total
			for _, x := range d.running {
				footprint = footprint || x.mask.Has(cu)
			}
			footprint = d.KillCU(cu) && footprint
		default:
			d.SetCUDegrade(int(r.byte())%total, stretches[r.byte()%4])
		}
		if moved := d.OccupancyGen() != gen; moved != footprint {
			t.Fatalf("step %d: occupancy generation moved=%v on a footprint change=%v", step, moved, footprint)
		}
		checkOccupancy(t, d, step)
		now := eng.Now()
		for _, x := range d.running {
			want := d.duration(x.work, x.mask, x.pressure, x.memIntensity)
			if math.Float64bits(x.curTotal) != math.Float64bits(want) {
				t.Fatalf("step %d: exec %d curTotal %v, full recompute %v", step, x.id, x.curTotal, want)
			}
			finish := now + x.remaining*want
			if !x.done.Pending() || math.Float64bits(x.done.At()) != math.Float64bits(finish) {
				t.Fatalf("step %d: exec %d finish %v (pending %v), want %v", step, x.id, x.done.At(), x.done.Pending(), finish)
			}
		}
	}
}

func TestRetimeMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, spec := range []DeviceSpec{MI50Spec(), MI100Spec()} {
		for trial := 0; trial < 200; trial++ {
			ops := make([]byte, 400)
			rng.Read(ops)
			driveRetime(t, spec, ops)
		}
	}
}

// TestCounterPlanesGrow stacks more kernels on one CU than the initial
// counter planes can count, on both devices (MI100's top CU lives in the
// hi mask word), so the planes must grow; counters must match a recount
// through the climb, a kill and the drain.
func TestCounterPlanesGrow(t *testing.T) {
	for _, spec := range []DeviceSpec{MI50Spec(), MI100Spec()} {
		eng := sim.New()
		d := NewDevice(eng, spec, nil)
		total := spec.Topo.TotalCUs()
		stack := 1<<kernelPlanes + 5
		for i := 0; i < stack; i++ {
			mask := CUMask{}.Set(0).Set(total - 1).Set(i % total)
			d.Launch(KernelWork{Workgroups: 100 + i, ThreadsPerWG: 256, WGTime: 10, Tail: 0.5}, mask, nil)
			checkOccupancy(t, d, i)
		}
		if len(d.planes) <= kernelPlanes || d.KernelCount(0) != stack || d.KernelCount(total-1) != stack {
			t.Fatalf("%v: %d planes, counts %d and %d after stacking %d kernels", spec.Topo, len(d.planes), d.KernelCount(0), d.KernelCount(total-1), stack)
		}
		d.KillCU(total - 1)
		checkOccupancy(t, d, stack)
		for step := stack + 1; d.Running() > 0; step++ {
			eng.Step()
			checkOccupancy(t, d, step)
		}
		if d.BusyCUs() != 0 {
			t.Fatalf("%v: %d busy CUs after drain", spec.Topo, d.BusyCUs())
		}
	}
}

// FuzzRetime explores operation sequences the property test's generator
// may not reach; mi100 selects the 8-SE device whose masks use the hi word.
func FuzzRetime(f *testing.F) {
	f.Add(false, []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 1})
	f.Add(true, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 7, 70, 3, 6, 70, 4})
	f.Add(true, []byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 0, 9, 1, 7, 7, 9, 3, 4, 6, 1})
	f.Fuzz(func(t *testing.T, mi100 bool, ops []byte) {
		spec := MI50Spec()
		if mi100 {
			spec = MI100Spec()
		}
		driveRetime(t, spec, ops)
	})
}

// TestLaunchCompleteZeroAlloc pins the device lifecycle's steady state:
// with four long co-runners in flight, launching and completing a kernel
// allocates nothing once the Exec free list is warm.
func TestLaunchCompleteZeroAlloc(t *testing.T) {
	for _, spec := range []DeviceSpec{MI50Spec(), MI100Spec()} {
		eng := sim.New()
		d := NewDevice(eng, spec, nil)
		topo := spec.Topo
		total := topo.TotalCUs()
		long := KernelWork{Workgroups: 6000, ThreadsPerWG: 256, WGTime: 1e6, MemBytes: 1e6, Tail: 0.5, WaveExponent: 0.65}
		for _, m := range []CUMask{FullMask(topo), RangeMask(topo, 0, total/2), RangeMask(topo, total/2, total/2), RangeMask(topo, total/4, total/3)} {
			d.Launch(long, m, nil)
		}
		short := KernelWork{Workgroups: 400, ThreadsPerWG: 256, WGTime: 2, MemBytes: 1e4, Tail: 0.5, WaveExponent: 0.65}
		shortMask := RangeMask(topo, total-20, 20)
		done := false
		onDone := func() { done = true }
		cycle := func() {
			done = false
			d.Launch(short, shortMask, onDone)
			for !done {
				eng.Step()
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("%v: launch+complete with four co-runners allocates %v times, want 0", topo, allocs)
		}
		if d.Running() != 4 {
			t.Fatalf("%v: %d kernels running, want the 4 co-runners", topo, d.Running())
		}
	}
}
