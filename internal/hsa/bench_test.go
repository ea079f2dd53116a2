package hsa

import (
	"testing"

	"krisp/internal/gpu"
	"krisp/internal/kernels"
	"krisp/internal/sim"
	tele "krisp/internal/telemetry"
)

func dispatchStack(kernelScoped bool) (*sim.Engine, *Queue) {
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cfg := DefaultConfig()
	cfg.KernelScoped = kernelScoped
	cp := NewCommandProcessor(eng, dev, cfg)
	return eng, cp.NewQueue()
}

// telemetryStack is dispatchStack with metrics enabled on both the device
// and the command processor — the configuration the zero-alloc guard below
// must hold under. No tracer: span tracing records events and is excluded
// from the 0 allocs/op contract by design.
func telemetryStack(kernelScoped bool) (*sim.Engine, *Queue) {
	eng := sim.New()
	hub := tele.NewHub(false)
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	dev.SetTelemetry(new(gpu.Telemetry).Bind(hub, gpu.MI50, 0))
	cfg := DefaultConfig()
	cfg.KernelScoped = kernelScoped
	cp := NewCommandProcessor(eng, dev, cfg)
	cp.SetTelemetry(new(Telemetry).Bind(hub, 0))
	return eng, cp.NewQueue()
}

var benchDesc = kernels.Desc{
	Name: "gemm",
	Work: gpu.KernelWork{Workgroups: 220, ThreadsPerWG: 256, WGTime: 10, Tail: 0.5},
}

// BenchmarkDispatch measures one steady-state kernel-scoped dispatch:
// packet consumption, Algorithm 1 through the mask cache, device launch,
// completion signal, recycle. This is the simulator's innermost loop and
// must run at 0 allocs/op once the pools are warm.
func BenchmarkDispatch(b *testing.B) {
	eng, q := dispatchStack(true)
	for i := 0; i < 8; i++ { // warm the signal/exec pools and the ring
		q.SubmitKernelScoped(benchDesc, 22, 0, nil)
		eng.Run()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.SubmitKernelScoped(benchDesc, 22, 0, nil)
		eng.Run()
	}
}

// BenchmarkDispatchPassthrough is the baseline path: no kernel-scoped
// masking, the kernel inherits the stream mask.
func BenchmarkDispatchPassthrough(b *testing.B) {
	eng, q := dispatchStack(false)
	for i := 0; i < 8; i++ {
		q.SubmitKernel(benchDesc, nil)
		eng.Run()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.SubmitKernel(benchDesc, nil)
		eng.Run()
	}
}

// BenchmarkDispatchWithTelemetry is BenchmarkDispatch with device and
// processor metrics enabled: queue depth, dispatch counters, wait
// histograms, occupancy gauges. The number to watch is allocs/op — it must
// stay 0 (TestDispatchZeroAllocs asserts it), so future instrumentation
// cannot regress the fast path.
func BenchmarkDispatchWithTelemetry(b *testing.B) {
	eng, q := telemetryStack(true)
	for i := 0; i < 8; i++ {
		q.SubmitKernelScoped(benchDesc, 22, 0, nil)
		eng.Run()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.SubmitKernelScoped(benchDesc, 22, 0, nil)
		eng.Run()
	}
}

// TestDispatchZeroAllocs pins the fast-path property the benchmarks
// report: a warm steady-state dispatch — kernel-scoped or passthrough,
// with or without telemetry — allocates nothing.
func TestDispatchZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scoped    bool
		telemetry bool
	}{
		{"kernel-scoped", true, false},
		{"passthrough", false, false},
		{"kernel-scoped+telemetry", true, true},
		{"passthrough+telemetry", false, true},
	} {
		var eng *sim.Engine
		var q *Queue
		if tc.telemetry {
			eng, q = telemetryStack(tc.scoped)
		} else {
			eng, q = dispatchStack(tc.scoped)
		}
		submit := func() {
			if tc.scoped {
				q.SubmitKernelScoped(benchDesc, 22, 0, nil)
			} else {
				q.SubmitKernel(benchDesc, nil)
			}
			eng.Run()
		}
		for i := 0; i < 8; i++ {
			submit()
		}
		if allocs := testing.AllocsPerRun(200, submit); allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady-state dispatch, want 0", tc.name, allocs)
		}
	}
}
