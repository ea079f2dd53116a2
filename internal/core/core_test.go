package core

import (
	"testing"

	"krisp/internal/alloc"
	"krisp/internal/faults"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/kernels"
	"krisp/internal/profile"
	"krisp/internal/sim"
	"krisp/internal/trace"
)

type stack struct {
	eng *sim.Engine
	dev *gpu.Device
	cp  *hsa.CommandProcessor
	rs  *RightSizer
	db  *profile.DB
}

func newStack(t *testing.T, descs []kernels.Desc, kernelScoped bool) *stack {
	t.Helper()
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cfg := hsa.DefaultConfig()
	cfg.KernelScoped = kernelScoped
	cp := hsa.NewCommandProcessor(eng, dev, cfg)
	db := profile.NewDB()
	db.Profile(profile.New(profile.DefaultConfig()), descs)
	return &stack{eng: eng, dev: dev, cp: cp, rs: NewRightSizer(db, 60), db: db}
}

func (s *stack) runtime(cfg Config) *Runtime {
	return NewRuntime(s.eng, s.cp, s.cp.NewQueue(), s.rs, cfg)
}

func twoKernels() []kernels.Desc {
	return []kernels.Desc{
		kernels.SizedCompute("small", 12, 10, 1, 100),
		kernels.SizedCompute("wide", 60, 10, 1, 20),
	}
}

func TestRightSizerUsesDB(t *testing.T) {
	descs := twoKernels()
	s := newStack(t, descs, true)
	if got := s.rs.Size(&descs[0]); got != 12 {
		t.Errorf("Size(small) = %d, want 12", got)
	}
	if got := s.rs.Size(&descs[1]); got != 60 {
		t.Errorf("Size(wide) = %d, want 60", got)
	}
	// Unprofiled kernels get the full device.
	unknown := kernels.SizedCompute("unknown", 5, 10, 1, 1)
	if got := s.rs.Size(&unknown); got != 60 {
		t.Errorf("Size(unknown) = %d, want 60", got)
	}
	// Nil DB always grants the full device.
	nilRS := NewRightSizer(nil, 60)
	if got := nilRS.Size(&descs[0]); got != 60 {
		t.Errorf("nil-DB Size = %d, want 60", got)
	}
}

func TestNativeModeRightSizesEachKernel(t *testing.T) {
	descs := twoKernels()
	s := newStack(t, descs, true)
	tr := &trace.Trace{}
	rt := s.runtime(Config{Mode: ModeNative, OverlapLimit: 0, Trace: tr})
	done := false
	rt.RunSequence(descs, func() { done = true })
	s.eng.Run()
	if !done {
		t.Fatal("sequence never completed")
	}
	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("%d trace records, want 2", len(recs))
	}
	if recs[0].AllocatedCUs != 12 {
		t.Errorf("small kernel allocated %d CUs, want 12", recs[0].AllocatedCUs)
	}
	if recs[1].AllocatedCUs != 60 {
		t.Errorf("wide kernel allocated %d CUs, want 60", recs[1].AllocatedCUs)
	}
	if recs[0].Seq != 0 || recs[1].Seq != 1 {
		t.Errorf("sequence numbers %d, %d, want 0, 1", recs[0].Seq, recs[1].Seq)
	}
	if recs[0].End <= recs[0].Start {
		t.Error("record has non-positive duration")
	}
}

func TestEmulatedModeReconfiguresQueueMask(t *testing.T) {
	descs := twoKernels()
	s := newStack(t, descs, false) // no native hardware support
	rt := s.runtime(Config{Mode: ModeEmulated, OverlapLimit: 0})
	var maskDuringFirst int
	rt.LaunchKernel(&descs[0], nil)
	// Inspect the device while the first (12-CU) kernel runs. The
	// emulation path spends ~32us before the kernel starts (two barrier
	// packets + IOCTL), so probe at 45us.
	s.eng.At(45, func() { maskDuringFirst = s.dev.BusyCUs() })
	s.eng.Run()
	if maskDuringFirst != 12 {
		t.Errorf("busy CUs during emulated kernel = %d, want 12", maskDuringFirst)
	}
	if got := rt.Queue().CUMask().Count(); got != 12 {
		t.Errorf("queue mask after run = %d CUs, want 12", got)
	}
}

func TestEmulatedSlowerThanNative(t *testing.T) {
	descs := twoKernels()

	run := func(mode Mode, kernelScoped bool) sim.Duration {
		s := newStack(t, descs, kernelScoped)
		rt := s.runtime(Config{Mode: mode, OverlapLimit: alloc.NoOverlapLimit})
		var done sim.Time
		rt.RunSequence(descs, func() { done = s.eng.Now() })
		s.eng.Run()
		return done
	}

	native := run(ModeNative, true)
	emulated := run(ModeEmulated, false)
	if emulated <= native {
		t.Errorf("emulated (%v) should be slower than native (%v)", emulated, native)
	}
	// Emulation adds per kernel: barrier B1 processing (6us) plus the
	// IOCTL wait that outlasts B2's processing (20us) = 26us; native
	// instead pays 1us of mask-allocation firmware time. Two kernels:
	// 2 x (26 - 1) = 50us.
	if d := emulated - native; d < 45 || d > 55 {
		t.Errorf("emulation overhead = %v, want ~50", d)
	}
}

func TestPassthroughIgnoresRightSizing(t *testing.T) {
	descs := twoKernels()
	s := newStack(t, descs, true)
	rt := s.runtime(Config{Mode: ModePassthrough})
	var busy int
	rt.LaunchKernel(&descs[0], nil)
	s.eng.At(10, func() { busy = s.dev.BusyCUs() })
	s.eng.Run()
	if busy != 60 {
		t.Errorf("passthrough busy CUs = %d, want 60 (full queue mask)", busy)
	}
}

func TestRunSequenceEmpty(t *testing.T) {
	s := newStack(t, nil, true)
	rt := s.runtime(Config{Mode: ModeNative})
	called := false
	rt.RunSequence(nil, func() { called = true })
	if !called {
		t.Error("empty sequence did not invoke onDone")
	}
}

func TestRuntimeRequiresRightSizer(t *testing.T) {
	s := newStack(t, nil, true)
	defer func() {
		if recover() == nil {
			t.Error("native mode without RightSizer did not panic")
		}
	}()
	NewRuntime(s.eng, s.cp, s.cp.NewQueue(), nil, Config{Mode: ModeNative})
}

func TestModeString(t *testing.T) {
	if ModePassthrough.String() != "passthrough" || ModeNative.String() != "native" ||
		ModeEmulated.String() != "emulated" || Mode(9).String() != "unknown" {
		t.Error("Mode.String wrong")
	}
}

func TestEstimateOverheadAccounting(t *testing.T) {
	descs := []kernels.Desc{
		kernels.SizedCompute("a", 12, 10, 1, 100),
		kernels.SizedCompute("b", 30, 10, 1, 50),
		kernels.SizedCompute("c", 60, 10, 1, 20),
	}
	est := EstimateOverhead(gpu.MI50Spec(), hsa.DefaultConfig(), descs)
	if est.LRealBase <= 0 || est.LEmuBase <= est.LRealBase {
		t.Fatalf("estimate = %+v, want 0 < real < emu", est)
	}
	// Per-kernel emulation cost: barrier B1 (6us) + the IOCTL wait beyond
	// B2's overlapped processing (20us) = 26us.
	wantOver := sim.Duration(3 * 26)
	if est.LOver < wantOver-5 || est.LOver > wantOver+5 {
		t.Errorf("LOver = %v, want ~%v", est.LOver, wantOver)
	}
	// Adjust subtracts the overhead and floors at zero.
	if got := est.Adjust(est.LEmuBase); got != est.LRealBase {
		t.Errorf("Adjust(LEmuBase) = %v, want LRealBase %v", got, est.LRealBase)
	}
	if got := est.Adjust(1); got != 0 {
		t.Errorf("Adjust(1) = %v, want 0 (floored)", got)
	}
}

// TestOverheadScalesWithKernelCount verifies the §V-B observation that
// emulation overhead scales with the number of kernel calls.
func TestOverheadScalesWithKernelCount(t *testing.T) {
	mk := func(n int) []kernels.Desc {
		out := make([]kernels.Desc, n)
		for i := range out {
			out[i] = kernels.SizedCompute("k", 12, 10, 1, 50)
		}
		return out
	}
	short := EstimateOverhead(gpu.MI50Spec(), hsa.DefaultConfig(), mk(10))
	long := EstimateOverhead(gpu.MI50Spec(), hsa.DefaultConfig(), mk(40))
	ratio := float64(long.LOver) / float64(short.LOver)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("overhead ratio = %.2f, want ~4 (scales with kernel count)", ratio)
	}
}

// failFirst is a FaultHook failing the first n kernel dispatches.
type failFirst struct{ n int }

func (f *failFirst) IOCTLOutcome() (bool, sim.Duration) { return false, 0 }
func (f *failFirst) KernelOutcome() (float64, bool) {
	if f.n > 0 {
		f.n--
		return 1, true
	}
	return 1, false
}
func (f *failFirst) NoteHealthRemask() {}

// TestRetriedLaunchTracesOnce pins the retry/trace contract: a kernel that
// transiently fails and is relaunched produces exactly one trace record
// for its seq, stamped with the attempt that completed it.
func TestRetriedLaunchTracesOnce(t *testing.T) {
	descs := twoKernels()
	s := newStack(t, descs, true)
	s.cp.SetFaults(&failFirst{n: 2})
	var tr trace.Trace
	stats := &faults.Stats{}
	rt := s.runtime(Config{
		Mode:  ModeNative,
		Trace: &tr,
		Hardening: &Hardening{
			MaxRetries: 3, RetryBackoff: 10, IOCTLFailureStreak: 3, Stats: stats,
		},
	})
	done := false
	rt.RunSequence(descs, func() { done = true })
	s.eng.Run()
	if !done {
		t.Fatal("sequence never completed")
	}
	if stats.KernelRetries != 2 {
		t.Fatalf("KernelRetries = %d, want 2", stats.KernelRetries)
	}
	recs := tr.Records()
	if len(recs) != len(descs) {
		t.Fatalf("%d trace records, want %d (one per seq)", len(recs), len(descs))
	}
	seen := map[int]bool{}
	retried := 0
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate trace record for seq %d", r.Seq)
		}
		seen[r.Seq] = true
		if r.Attempt > 0 {
			retried++
		}
	}
	if retried != 2 {
		t.Fatalf("%d records marked as retried, want 2", retried)
	}
}

// TestLaunchKernelZeroAlloc pins the untraced dispatch path through the
// runtime: once warm, a LaunchKernel that runs to completion allocates
// nothing. The native KRISP-I case keeps a long co-runner in flight, so
// every launch misses the busy mask cache (each completion moves the
// occupancy generation) and reads freshly built counters.
func TestLaunchKernelZeroAlloc(t *testing.T) {
	short := kernels.SizedCompute("short", 12, 10, 1, 5)
	long := kernels.SizedCompute("long", 20, 10, 1, 1e7)
	for _, mode := range []Mode{ModeNative, ModePassthrough} {
		s := newStack(t, []kernels.Desc{short, long}, mode == ModeNative)
		cfg := Config{Mode: mode, OverlapLimit: 0}
		s.runtime(cfg).LaunchKernel(&long, nil)
		rt := s.runtime(cfg)
		done := false
		onDone := func() { done = true }
		cycle := func() {
			done = false
			rt.LaunchKernel(&short, onDone)
			for !done {
				s.eng.Step()
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		misses := s.cp.MaskCache().Misses
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("%v: steady-state LaunchKernel allocates %v times, want 0", mode, allocs)
		}
		if s.dev.Running() != 1 {
			t.Fatalf("%v: %d kernels running, want the long co-runner", mode, s.dev.Running())
		}
		if mode == ModeNative && s.cp.MaskCache().Misses < misses+200 {
			t.Fatalf("native: %d busy mask-cache misses over 201 launches, want one per launch", s.cp.MaskCache().Misses-misses)
		}
	}
}

// TestSequenceLeasesOneSignal checks that only kernels something waits on
// carry a completion signal: an untraced sequence leases one, for the
// final kernel's onDone, and a traced one leases one per kernel for its
// trace records. Every lease is back in the pool once the sequence ends.
func TestSequenceLeasesOneSignal(t *testing.T) {
	descs := append(twoKernels(), twoKernels()...)
	for _, traced := range []bool{false, true} {
		s := newStack(t, descs, true)
		cfg := Config{Mode: ModeNative}
		want := 1
		if traced {
			cfg.Trace = &trace.Trace{}
			want = len(descs)
		}
		done := false
		s.runtime(cfg).RunSequence(descs, func() { done = true })
		if got := s.cp.LeasedSignals(); got != want {
			t.Errorf("traced=%v: %d signals leased for a %d-kernel sequence, want %d", traced, got, len(descs), want)
		}
		s.eng.Run()
		if !done {
			t.Fatalf("traced=%v: sequence never completed", traced)
		}
		if got := s.cp.LeasedSignals(); got != 0 {
			t.Errorf("traced=%v: %d signals still leased after the sequence, want 0", traced, got)
		}
	}
}
