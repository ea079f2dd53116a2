package hsa

import (
	"testing"

	"krisp/internal/gpu"
	"krisp/internal/sim"
)

// TestSignalDoubleCompletionGuard asserts the defensive behaviour injected
// faults rely on: completing a signal past zero is counted as an overrun,
// never fires waiters twice, and never pushes the value negative (which
// would corrupt barrier dependency counts).
func TestSignalDoubleCompletionGuard(t *testing.T) {
	s := NewSignal(1)
	fired := 0
	s.OnDone(func() { fired++ })
	s.Complete()
	s.Complete()
	s.Complete()
	if fired != 1 {
		t.Fatalf("waiters fired %d times, want 1", fired)
	}
	if s.Overruns() != 2 {
		t.Fatalf("overruns = %d, want 2", s.Overruns())
	}
	if s.Value() != 0 {
		t.Fatalf("value = %d, want 0 (never negative)", s.Value())
	}
	// A signal that over-completed still behaves as done for barriers.
	lateFired := false
	s.OnDone(func() { lateFired = true })
	if !lateFired {
		t.Fatal("late waiter on over-completed signal did not fire")
	}
}

// TestSignalReentrantComplete guards against a waiter completing the same
// signal again from inside its own callback.
func TestSignalReentrantComplete(t *testing.T) {
	s := NewSignal(1)
	fired := 0
	s.OnDone(func() {
		fired++
		s.Complete() // malicious/faulty re-entry
	})
	s.Complete()
	if fired != 1 {
		t.Fatalf("waiters fired %d times, want 1", fired)
	}
	if s.Overruns() != 1 {
		t.Fatalf("overruns = %d, want 1", s.Overruns())
	}
}

func TestQueueStallDelaysConsumption(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()

	q.StallFor(500)
	if !q.Stalled() {
		t.Fatal("queue not stalled")
	}
	var doneAt sim.Time
	q.SubmitKernel(oneWave(), func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt < 500 {
		t.Fatalf("kernel completed at %v, inside the stall window", doneAt)
	}
}

func TestQueueStallDoesNotAbortInFlightPacket(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	var first, second sim.Time
	q.SubmitKernel(oneWave(), func() { first = eng.Now() })
	q.SubmitKernel(oneWave(), func() { second = eng.Now() })

	// Stall mid-execution of the first kernel: it finishes normally, the
	// second is held until the stall expires.
	eng.RunUntil(8)
	q.StallFor(1000)
	eng.Run()
	if first >= 1000 {
		t.Errorf("in-flight kernel completed at %v, should finish during the stall", first)
	}
	if second < 1008 {
		t.Errorf("second kernel completed at %v, before the stall expired", second)
	}
}

func TestResetStallRecoversHungQueue(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	q.StallFor(1e12) // effectively hung
	var doneAt sim.Time
	q.SubmitKernel(oneWave(), func() { doneAt = eng.Now() })

	eng.RunUntil(100)
	if !q.ResetStall() {
		t.Fatal("ResetStall reported no stall")
	}
	eng.RunUntil(1e6)
	if doneAt == 0 || doneAt > 1000 {
		t.Fatalf("kernel completed at %v, want shortly after the reset at 100", doneAt)
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events still pending after reset drain", eng.Pending())
	}
}

// stubHook scripts the FaultHook for deterministic unit tests.
type stubHook struct {
	ioctlFail  bool
	ioctlExtra sim.Duration
	stretch    float64
	kernelFail bool
	remasks    int
}

func (s *stubHook) IOCTLOutcome() (bool, sim.Duration) { return s.ioctlFail, s.ioctlExtra }
func (s *stubHook) KernelOutcome() (float64, bool)     { return s.stretch, s.kernelFail }
func (s *stubHook) NoteHealthRemask()                  { s.remasks++ }

func TestSetCUMaskCheckedFailureLeavesMaskUnchanged(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	hook := &stubHook{ioctlFail: true, stretch: 1}
	cp.SetFaults(hook)

	before := q.CUMask()
	var got error
	called := false
	q.SetCUMaskChecked(gpu.RangeMask(gpu.MI50, 0, 15), func(err error) {
		called = true
		got = err
	})
	eng.Run()
	if !called {
		t.Fatal("onApplied never ran")
	}
	if got != ErrIOCTLFault {
		t.Fatalf("err = %v, want ErrIOCTLFault", got)
	}
	if !q.CUMask().Equal(before) {
		t.Error("failed IOCTL changed the queue mask")
	}
}

func TestIOCTLLatencySpikeSerializes(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	hook := &stubHook{ioctlExtra: 400, stretch: 1}
	cp.SetFaults(hook)

	var firstAt, secondAt sim.Time
	q.SetCUMaskChecked(gpu.RangeMask(gpu.MI50, 0, 15), func(error) { firstAt = eng.Now() })
	q.SetCUMaskChecked(gpu.RangeMask(gpu.MI50, 0, 30), func(error) { secondAt = eng.Now() })
	eng.Run()
	// Default IOCTL latency is 20us; the spike adds 400us to each, and the
	// second serializes behind the first.
	if firstAt != 420 {
		t.Errorf("first IOCTL applied at %v, want 420", firstAt)
	}
	if secondAt != 840 {
		t.Errorf("second IOCTL applied at %v, want 840 (serialized)", secondAt)
	}
}

func TestTransientKernelFailureRoutesToOnFault(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	hook := &stubHook{kernelFail: true, stretch: 1}
	cp.SetFaults(hook)

	sig := NewSignal(1)
	faulted := false
	q.Submit(Packet{
		Type:       KernelDispatch,
		Kernel:     oneWave(),
		Completion: sig,
		OnFault:    func() { faulted = true },
	})
	eng.Run()
	if !faulted {
		t.Fatal("OnFault never ran")
	}
	if sig.Done() {
		t.Fatal("completion signal completed despite the failure")
	}
}

// TestFaultedDispatchRecyclesSignal checks that a dispatch routed to its
// OnFault handler returns its pooled completion signal: the fault route
// never completes it, so without the recycle every fault would pin one
// signal until Reset, and fleet nodes never reset.
func TestFaultedDispatchRecyclesSignal(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	cp.SetFaults(&stubHook{kernelFail: true, stretch: 1})

	d := oneWave()
	faults := 0
	onFault := func() { faults++ }
	for i := 0; i < 1000; i++ {
		sig := cp.GetSignal(1)
		sig.OnDone(func() { t.Fatal("faulted dispatch completed its signal") })
		q.SubmitDispatch(&d, 0, 0, sig, onFault, nil)
		eng.Run()
	}
	if faults != 1000 {
		t.Fatalf("OnFault ran %d times, want 1000", faults)
	}
	if got := cp.LeasedSignals(); got != 0 {
		t.Fatalf("%d signals still leased after 1000 faulted dispatches, want 0", got)
	}
	if len(cp.sigAll) != 1 {
		t.Fatalf("signal population grew to %d over sequential faults, want 1", len(cp.sigAll))
	}
}

func TestTransientFailureWithoutHandlerIsSwallowed(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	cp.SetFaults(&stubHook{kernelFail: true, stretch: 1})

	done := false
	q.SubmitKernel(oneWave(), func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("unhandled transient failure deadlocked the queue")
	}
}

func TestStragglerStretchSlowsKernel(t *testing.T) {
	runOne := func(stretch float64) sim.Time {
		eng, _, cp := newStack(false)
		q := cp.NewQueue()
		cp.SetFaults(&stubHook{stretch: stretch})
		var doneAt sim.Time
		q.SubmitKernel(oneWave(), func() { doneAt = eng.Now() })
		eng.Run()
		return doneAt
	}
	base := runOne(1)
	slow := runOne(4)
	if slow <= base {
		t.Fatalf("straggler completed at %v, not after baseline %v", slow, base)
	}
}

func TestDispatchRemasksAroundDeadCUs(t *testing.T) {
	eng, dev, cp := newStack(false)
	q := cp.NewQueue()
	hook := &stubHook{stretch: 1}
	cp.SetFaults(hook)

	// Pin the stream to SE0 then kill half of it.
	applied := false
	q.SetCUMask(gpu.RangeMask(gpu.MI50, 0, 4), func() { applied = true })
	eng.Run()
	if !applied {
		t.Fatal("mask never applied")
	}
	for cu := 0; cu < 2; cu++ {
		dev.KillCU(cu)
	}
	var granted gpu.CUMask
	q.Submit(Packet{
		Type:       KernelDispatch,
		Kernel:     oneWave(),
		Completion: NewSignal(1),
		OnDispatch: func(m gpu.CUMask) { granted = m },
	})
	eng.Run()
	if granted.Has(0) || granted.Has(1) {
		t.Errorf("dispatch mask includes dead CUs: %v", granted)
	}
	if hook.remasks != 1 {
		t.Errorf("health remasks = %d, want 1", hook.remasks)
	}
}
