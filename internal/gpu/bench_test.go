package gpu

import (
	"testing"

	"krisp/internal/sim"
)

// BenchmarkDuration measures the closed-form latency model — the profiler
// evaluates it tens of thousands of times per model sweep.
func BenchmarkDuration(b *testing.B) {
	d := NewDevice(sim.New(), MI50Spec(), nil)
	work := KernelWork{Workgroups: 550, ThreadsPerWG: 256, WGTime: 10, MemBytes: 1e7, Tail: 0.5, WaveExponent: 0.65}
	mask := RangeMask(MI50, 0, 37)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Duration(work, mask)
	}
}

// BenchmarkLaunchCompleteCycle measures one kernel lifecycle on the
// device, including the retime of co-runners.
func BenchmarkLaunchCompleteCycle(b *testing.B) {
	eng := sim.New()
	d := NewDevice(eng, MI50Spec(), nil)
	work := KernelWork{Workgroups: 600, ThreadsPerWG: 256, WGTime: 10, Tail: 0.5}
	mask := FullMask(MI50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Launch(work, mask, nil)
		eng.Run()
	}
}

// benchRetime times one short kernel's launch and completion per
// iteration on shortMask while long co-runners stay in flight on
// longMasks: a co-runner that completes is relaunched on its mask, so the
// contended shape holds for any b.N. The shape is checked after the last
// iteration.
func benchRetime(b *testing.B, longMasks []CUMask, shortMask CUMask) {
	eng := sim.New()
	d := NewDevice(eng, MI50Spec(), nil)
	long := KernelWork{Workgroups: 6000, ThreadsPerWG: 256, WGTime: 10, Tail: 0.5}
	var busy CUMask
	for _, m := range longMasks {
		m := m
		var relaunch func()
		relaunch = func() { d.Launch(long, m, relaunch) }
		relaunch()
		busy = busy.Or(m)
	}
	short := KernelWork{Workgroups: 150, ThreadsPerWG: 256, WGTime: 1, Tail: 0.5}
	shortDone := false
	onShort := func() { shortDone = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shortDone = false
		d.Launch(short, shortMask, onShort)
		for !shortDone {
			eng.Step()
		}
	}
	b.StopTimer()
	if d.Running() != len(longMasks) || d.BusyCUs() != busy.Count() {
		b.Fatalf("after %d iterations: %d running on %d busy CUs, want %d on %d",
			b.N, d.Running(), d.BusyCUs(), len(longMasks), busy.Count())
	}
}

// BenchmarkContendedRetime measures the retime cost with several
// concurrent kernels — the dominant per-event cost in big simulations:
// three long co-runners each own an SE while short kernels cycle on the
// fourth.
func BenchmarkContendedRetime(b *testing.B) {
	benchRetime(b, []CUMask{RangeMask(MI50, 0, 15), RangeMask(MI50, 15, 15), RangeMask(MI50, 30, 15)},
		RangeMask(MI50, 45, 15))
}

// BenchmarkRetimeSharedMask is the MPS-default shape: every kernel runs on
// the full device, so every launch and completion overlaps every
// co-runner and each retime recomputes all of them.
func BenchmarkRetimeSharedMask(b *testing.B) {
	full := FullMask(MI50)
	benchRetime(b, []CUMask{full, full, full}, full)
}

func BenchmarkMaskOps(b *testing.B) {
	m := FullMask(MI50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m = m.Clear(i % 60).Set(i % 60)
		_ = m.CountInSE(MI50, i%4)
	}
}
