package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

var spinSink int

// spinForProfile burns d of process CPU. It works on a local so that, under
// -race, the loop does not run in the race runtime's C code, where the
// profiler cannot walk Go stacks.
//
//go:noinline
func spinForProfile(d time.Duration) int {
	x := 0
	for start := cpuMs(); cpuMs()-start < float64(d.Milliseconds()); {
		for i := 0; i < 1e5; i++ {
			x += i ^ x
		}
	}
	return x
}

func TestDecodeProfileKeepsLabelsAndStacks(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("workload", "unit", "phase", "run"), func(context.Context) {
		spinSink = spinForProfile(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled int64
	for _, s := range samples {
		if s.cpuNs <= 0 {
			t.Fatalf("sample with cpu %d ns", s.cpuNs)
		}
		// Symbols of a main package read "main." in a binary and carry the
		// import path in a test.
		spinning := slices.ContainsFunc(s.stack, func(fn string) bool { return strings.HasSuffix(fn, ".spinForProfile") })
		if s.labels["workload"] == "unit" && s.labels["phase"] == "run" && spinning {
			labelled += s.cpuNs
		}
	}
	// 300ms of spinning at the default 100 Hz leaves ~30 samples; half is
	// plenty of margin for a loaded host.
	if labelled < (150 * time.Millisecond).Nanoseconds() {
		t.Fatalf("labelled spin samples hold %v of CPU, want at least 150ms", time.Duration(labelled))
	}
	// The spin has no simulator frame, so it is runtime time.
	if got := layerTimes(samples, func(s profSample) bool { return s.labels["phase"] == "run" }); got["runtime"] < labelled {
		t.Fatalf("runtime layer %v < labelled %v", got["runtime"], labelled)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("decoded garbage")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "krisp/internal/cluster/gateway.(*Gateway).Admit", "krisp/internal/cluster.(*Fleet).Run"}, "gateway"},
		{[]string{"krisp/internal/cluster.(*router).route", "krisp/internal/cluster.(*Fleet).Run"}, "cluster"},
		{[]string{"krisp/internal/cluster/workload.TenantArrivals"}, "workload"},
		{[]string{"krisp/internal/kernels.Desc.Key", "krisp/internal/server.Run"}, "models"},
		{[]string{"krisp/internal/profile.(*Profiler).ModelLatency", "krisp/internal/sched.(*Planner).sweep"}, "sched"},
		{[]string{"krisp/internal/gpu.(*Device).retime.func1", "krisp/internal/sim.(*Engine).RunUntil"}, "gpu"},
		{[]string{"krisp/internal/parallel.Map[go.shape.struct { krisp/internal/server.x int }]"}, "parallel"},
		{[]string{"krisp/internal/faults.(*Injector).Arm"}, "misc"},
		{[]string{"krisp/internal/reconfig.Costs.ReloadTime"}, "misc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"main.(*childRunner).measure", "main.runChild"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestEveryMappedPackageHasALayer(t *testing.T) {
	for pkg, l := range packageLayer {
		if !slices.Contains(layers, l) {
			t.Errorf("package %s maps to unlisted layer %s", pkg, l)
		}
	}
}
