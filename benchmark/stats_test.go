package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if v, err := percentile(seq(100), 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(99), 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

func TestLatHistPercentile(t *testing.T) {
	var h latHist
	for _, v := range seq(1000) {
		h.add(v)
	}
	p99, err := h.percentile(99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p99-990)/990 > 0.001 {
		t.Fatalf("p99 = %v, want 990 within one 0.1%% bucket", p99)
	}
	var small latHist
	for _, v := range seq(999) {
		small.add(v)
	}
	if _, err := small.percentile(99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	// Merging is exact: two halves give the whole.
	var a, b latHist
	for i, v := range seq(1000) {
		if i%2 == 0 {
			a.add(v)
		} else {
			b.add(v)
		}
	}
	a.merge(b)
	if got, _ := a.percentile(99); got != p99 {
		t.Fatalf("merged p99 = %v, want %v", got, p99)
	}
}

// TestQuartilesMatchPython pins the values statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(4), [3]float64{1.25, 2.5, 3.75}},
		{seq(2), [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestReferenceAdjustment(t *testing.T) {
	if got := adjust(100, 5, 10); got != 200 {
		t.Fatalf("a host twice as fast as nominal: got %v, want 200", got)
	}
	if got := adjust(100, 20, 10); got != 50 {
		t.Fatalf("a host twice as slow as nominal: got %v, want 50", got)
	}
	// Each run is adjusted by the median of the refWindow reference passes
	// on each side of it: eleven runs with a pass between each pair, the
	// host slowing from 10 to 20 ms per pass halfway, and one disturbed
	// pass that the median ignores.
	var p pass
	for j := 0; j < 12; j++ {
		ref := 10.0
		if j >= 6 {
			ref = 20
		}
		if j == 2 {
			ref = 100
		}
		p.RefMs, p.RefAtRun = append(p.RefMs, ref), append(p.RefAtRun, j)
		if j < 11 {
			p.RunMs = append(p.RunMs, 10)
		}
	}
	adjusted := p.adjustedRunMs(10)
	for j, want := range map[int]float64{0: 10, 1: 10, 10: 5} {
		if math.Abs(adjusted[j]-want) > 1e-12 {
			t.Errorf("run %d adjusted to %v, want %v", j, adjusted[j], want)
		}
	}

	child := func(refMs float64) *childReport {
		r := &childReport{SetupS: 0.1}
		r.Run.RefMs, r.Run.RefAtRun = []float64{refMs * 0.9, refMs * 1.1}, []int{0, 100}
		for i := 0; i < 100; i++ {
			r.Run.RunMs = append(r.Run.RunMs, 10)
		}
		r.Run.CPUMs = 1500
		r.Run.Sim.VS = 50
		r.Run.Sim.Completed = 5000
		return r
	}
	// Each child's times scale by nominal/ref: 2x for the fast child, 0.5x
	// for the slow one; medians over two children average them.
	reps := []*childReport{child(5), child(20)}
	m, err := hostTimes(reps, 10)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"setup_s":        (0.2 + 0.05) / 2,
		"host_ms_per_vs": (40 + 10) / 2.0,
		"cpu_ms_per_vs":  (60 + 15) / 2.0,
		"requests_per_s": (2500 + 10000) / 2.0,
		"run_ms_p50":     5,
		"run_ms_p90":     20,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	raw, _ := hostTimes(reps, 0)
	if raw["host_ms_per_vs"] != 20 || raw["setup_s"] != 0.1 {
		t.Errorf("unadjusted host_ms_per_vs %v setup_s %v, want 20 and 0.1", raw["host_ms_per_vs"], raw["setup_s"])
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "host_ms_per_vs", Better: "lower", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		parent []float64
		change []float64
		want   string
	}{
		{"gain", parent, scale(parent, 0.8), "gain"},
		{"same", parent, parent, "within bound"},
		{"regression", parent, scale(parent, 1.2), "regression"},
		{"noisy parent", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scale(parent, 1.05), "unresolved"},
		{"too few pairs", parent[:5], scale(parent[:5], 0.8), "unresolved"},
	} {
		if got := judge(lower, tc.parent, tc.change, false).verdict; !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := judge(lower, parent, scale(parent, 0.8), true).verdict; got == "gain" {
		t.Error("a gain with more failed operations must not count")
	}
}
