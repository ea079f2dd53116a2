package hsa

import (
	"testing"

	"krisp/internal/gpu"
	"krisp/internal/kernels"
	"krisp/internal/sim"
)

func newStack(kernelScoped bool) (*sim.Engine, *gpu.Device, *CommandProcessor) {
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cfg := DefaultConfig()
	cfg.KernelScoped = kernelScoped
	cp := NewCommandProcessor(eng, dev, cfg)
	return eng, dev, cp
}

// oneWave is a 600-WG compute kernel: 1 wave on the full MI50 (~10us).
func oneWave() kernels.Desc {
	return kernels.SizedCompute("test", 60, 10, 1, 10)
}

func TestSignalLifecycle(t *testing.T) {
	s := NewSignal(2)
	fired := 0
	s.OnDone(func() { fired++ })
	if s.Done() {
		t.Fatal("signal done before completions")
	}
	s.Complete()
	if s.Done() || fired != 0 {
		t.Fatal("signal done after 1 of 2 completions")
	}
	s.Complete()
	if !s.Done() || fired != 1 {
		t.Fatalf("done=%v fired=%d after 2 completions", s.Done(), fired)
	}
	// Extra completes are no-ops; waiters on a done signal fire at once.
	s.Complete()
	s.OnDone(func() { fired++ })
	if fired != 2 {
		t.Fatalf("fired=%d, want 2", fired)
	}
}

func TestKernelDispatchCompletes(t *testing.T) {
	eng, dev, cp := newStack(false)
	q := cp.NewQueue()
	var doneAt sim.Time
	q.SubmitKernel(oneWave(), func() { doneAt = eng.Now() })
	eng.Run()
	// 6us packet processing + ~10.5us kernel.
	if doneAt < 16 || doneAt > 18 {
		t.Errorf("kernel completed at %v, want ~16.5", doneAt)
	}
	if dev.Running() != 0 {
		t.Error("device not idle")
	}
	if cp.DispatchCount != 1 {
		t.Errorf("DispatchCount = %d, want 1", cp.DispatchCount)
	}
}

func TestQueueSerializesKernels(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	var first, second sim.Time
	q.SubmitKernel(oneWave(), func() { first = eng.Now() })
	q.SubmitKernel(oneWave(), func() { second = eng.Now() })
	eng.Run()
	if second <= first {
		t.Fatalf("second kernel (%v) did not run after first (%v)", second, first)
	}
	// Serialized: second completes one full launch+exec after the first.
	if d := second - first; d < 16 || d > 18 {
		t.Errorf("spacing = %v, want ~16.5", d)
	}
}

func TestSeparateQueuesRunConcurrently(t *testing.T) {
	eng, _, cp := newStack(false)
	q1, q2 := cp.NewQueue(), cp.NewQueue()
	var t1, t2 sim.Time
	q1.SubmitKernel(oneWave(), func() { t1 = eng.Now() })
	q2.SubmitKernel(oneWave(), func() { t2 = eng.Now() })
	eng.Run()
	// Both share the full GPU and slow down symmetrically; simultaneous
	// completion proves they overlapped rather than serialized.
	if t1 != t2 {
		t.Errorf("concurrent kernels at %v, %v — look serialized", t1, t2)
	}
	if t1 <= 0 {
		t.Fatal("kernels never completed")
	}
}

func TestQueueCUMaskRestrictsKernels(t *testing.T) {
	eng, dev, cp := newStack(false)
	q := cp.NewQueue()
	applied := false
	q.SetCUMask(gpu.RangeMask(gpu.MI50, 0, 15), func() { applied = true })
	eng.Run()
	if !applied {
		t.Fatal("mask never applied")
	}
	var maxBusy int
	q.SubmitKernel(oneWave(), nil)
	eng.At(eng.Now()+10, func() {
		if b := dev.BusyCUs(); b > maxBusy {
			maxBusy = b
		}
	})
	eng.Run()
	if maxBusy != 15 {
		t.Errorf("busy CUs = %d, want 15 (stream mask)", maxBusy)
	}
}

func TestSetCUMaskTakesIOCTLLatency(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	var appliedAt sim.Time
	q.SetCUMask(gpu.RangeMask(gpu.MI50, 0, 10), func() { appliedAt = eng.Now() })
	eng.Run()
	if appliedAt != 20 {
		t.Errorf("mask applied at %v, want 20 (IOCTL latency)", appliedAt)
	}
}

func TestIOCTLsSerializeGlobally(t *testing.T) {
	eng, _, cp := newStack(false)
	q1, q2, q3 := cp.NewQueue(), cp.NewQueue(), cp.NewQueue()
	var times []sim.Time
	record := func() { times = append(times, eng.Now()) }
	q1.SetCUMask(gpu.RangeMask(gpu.MI50, 0, 10), record)
	q2.SetCUMask(gpu.RangeMask(gpu.MI50, 10, 10), record)
	q3.SetCUMask(gpu.RangeMask(gpu.MI50, 20, 10), record)
	eng.Run()
	want := []sim.Time{20, 40, 60}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("IOCTL %d applied at %v, want %v (serialized)", i, times[i], w)
		}
	}
}

func TestSetCUMaskEmptyPanics(t *testing.T) {
	_, _, cp := newStack(false)
	q := cp.NewQueue()
	defer func() {
		if recover() == nil {
			t.Error("empty mask did not panic")
		}
	}()
	q.SetCUMask(gpu.CUMask{}, nil)
}

func TestBarrierWaitsForDeps(t *testing.T) {
	eng, _, cp := newStack(false)
	q1, q2 := cp.NewQueue(), cp.NewQueue()
	kernelSig := NewSignal(1)
	q1.Submit(Packet{Type: KernelDispatch, Kernel: oneWave(), Completion: kernelSig})
	var barrierAt, kernelAt sim.Time
	kernelSig.OnDone(func() { kernelAt = eng.Now() })
	q2.SubmitBarrier([]*Signal{kernelSig}, func() { barrierAt = eng.Now() }, nil)
	eng.Run()
	if barrierAt < kernelAt {
		t.Errorf("barrier fired at %v before dep at %v", barrierAt, kernelAt)
	}
}

func TestBarrierWithDoneDepsFiresImmediately(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	fired := false
	q.SubmitBarrier([]*Signal{NewSignal(0)}, func() { fired = true }, nil)
	eng.Run()
	if !fired {
		t.Error("barrier with satisfied deps never fired")
	}
	if eng.Now() != 6 {
		t.Errorf("barrier consumed at %v, want 6 (packet process time)", eng.Now())
	}
}

func TestBarrierBlocksLaterPackets(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	gate := NewSignal(1)
	var kernelAt sim.Time
	q.SubmitBarrier([]*Signal{gate}, nil, nil)
	q.SubmitKernel(oneWave(), func() { kernelAt = eng.Now() })
	eng.At(100, func() { gate.Complete() })
	eng.Run()
	if kernelAt < 100 {
		t.Errorf("kernel behind barrier completed at %v, before gate at 100", kernelAt)
	}
}

func TestKernelScopedPartitionHonoursPacketField(t *testing.T) {
	eng, dev, cp := newStack(true)
	q := cp.NewQueue()
	var busyDuringExec int
	q.SubmitKernelScoped(oneWave(), 12, 0, nil)
	eng.At(10, func() { busyDuringExec = dev.BusyCUs() })
	eng.Run()
	if busyDuringExec != 12 {
		t.Errorf("busy CUs = %d, want 12 (kernel-scoped partition)", busyDuringExec)
	}
}

func TestKernelScopedIgnoredWhenDisabled(t *testing.T) {
	eng, dev, cp := newStack(false)
	q := cp.NewQueue()
	var busyDuringExec int
	q.SubmitKernelScoped(oneWave(), 12, 0, nil)
	eng.At(10, func() { busyDuringExec = dev.BusyCUs() })
	eng.Run()
	if busyDuringExec != 60 {
		t.Errorf("busy CUs = %d, want 60 (partition field ignored)", busyDuringExec)
	}
}

func TestKernelScopedIsolationBetweenQueues(t *testing.T) {
	eng, dev, cp := newStack(true)
	q1, q2 := cp.NewQueue(), cp.NewQueue()
	q1.SubmitKernelScoped(oneWave(), 30, 0, nil)
	q2.SubmitKernelScoped(oneWave(), 30, 0, nil)
	overlap := -1
	eng.At(12, func() {
		// Both kernels should be running on disjoint 30-CU partitions.
		overlap = 0
		for cu := 0; cu < 60; cu++ {
			if dev.KernelCount(cu) > 1 {
				overlap++
			}
		}
	})
	eng.Run()
	if overlap != 0 {
		t.Errorf("%d CUs overlapped, want 0 (isolated kernel-scoped partitions)", overlap)
	}
}

func TestMaskAllocTimeCharged(t *testing.T) {
	engA, _, cpA := newStack(false)
	qA := cpA.NewQueue()
	var plainDone sim.Time
	qA.SubmitKernel(oneWave(), func() { plainDone = engA.Now() })
	engA.Run()

	engB, _, cpB := newStack(true)
	qB := cpB.NewQueue()
	var scopedDone sim.Time
	qB.SubmitKernelScoped(oneWave(), 60, 60, func() { scopedDone = engB.Now() })
	engB.Run()

	if d := scopedDone - plainDone; d != 1 {
		t.Errorf("kernel-scoped extra cost = %v, want 1 (MaskAllocTime)", d)
	}
}

// TestQueueRingKeepsFIFOAcrossWrapAndGrowth submits packets in irregular
// bursts — from completion callbacks and from timed events that land while
// a packet is mid-flight in its ring slot — so the ring wraps and grows
// around a held slot. Kernels must complete in submission order, and
// Pending must count only waiting packets.
func TestQueueRingKeepsFIFOAcrossWrapAndGrowth(t *testing.T) {
	eng, _, cp := newStack(false)
	q := cp.NewQueue()
	var order []int
	next := 0
	var submit func(n int)
	submit = func(n int) {
		for i := 0; i < n; i++ {
			id := next
			next++
			q.SubmitKernel(oneWave(), func() {
				order = append(order, id)
				// Every third completion submits a burst of growing size
				// while this queue is still busy.
				if id%3 == 0 && next < 200 {
					submit(id%7 + 1)
				}
			})
		}
	}
	submit(3)
	if q.Pending() != 2 || !q.busy {
		t.Fatalf("after 3 submits: pending %d busy %v, want 2 waiting behind 1 in flight", q.Pending(), q.busy)
	}
	for i := 1; i <= 40; i++ {
		n := i%9 + 1
		eng.At(sim.Time(i)*23.7, func() { submit(n) })
	}
	eng.Run()
	if len(order) != next {
		t.Fatalf("%d of %d kernels completed", len(order), next)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("completion %d was kernel %d: FIFO order broken", i, id)
		}
	}
	if q.Pending() != 0 || !q.Quiescent() {
		t.Fatalf("drained queue: pending %d quiescent %v", q.Pending(), q.Quiescent())
	}
	for i := range q.ring {
		if p := &q.ring[i]; p.Completion != nil || p.OnFault != nil || p.OnDispatch != nil || p.Kernel.Name != "" {
			t.Fatalf("retired slot %d still holds references", i)
		}
	}
}
