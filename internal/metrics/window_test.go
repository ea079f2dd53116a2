package metrics

import (
	"math/rand"
	"sort"
	"testing"
)

func TestLatWindowP95(t *testing.T) {
	var w LatWindow
	if got := w.P95(); got != 0 {
		t.Fatalf("empty window p95 = %v, want 0", got)
	}
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	// Window holds the last 64 values: 37..100; p95 is near the top.
	got := w.P95()
	if got < 95 || got > 100 {
		t.Fatalf("p95 = %v, want within [95, 100]", got)
	}
	// Cached value invalidates on add.
	w.Add(1e9)
	if w.P95() <= got {
		t.Fatal("p95 did not react to a new extreme sample")
	}
}

// TestLatWindowMatchesSortedReference checks the top-k scan against the
// definition it replaces: copy the most recent min(n, 64) samples, sort
// them, and take sorted[ceil(n*0.95)-1]. Streams draw from a small value
// range so duplicates are common, and run past 64 samples so the ring
// wraps; every prefix is checked, covering each window size 1..64.
func TestLatWindowMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for stream := 0; stream < 200; stream++ {
		var w LatWindow
		var all []float64
		levels := 1 + rng.Intn(12) // few distinct values: heavy duplication
		for i := 0; i < 64+rng.Intn(200); i++ {
			v := float64(rng.Intn(levels)) * 250
			w.Add(v)
			all = append(all, v)
			if rng.Intn(3) == 0 {
				continue // let several adds land before a query
			}
			recent := all
			if len(recent) > 64 {
				recent = recent[len(recent)-64:]
			}
			sorted := append([]float64(nil), recent...)
			sort.Float64s(sorted)
			idx := (len(sorted)*95 + 99) / 100
			if idx > 0 {
				idx--
			}
			if got, want := w.P95(), sorted[idx]; got != want {
				t.Fatalf("stream %d after %d adds: p95 = %v, want %v (window %v)", stream, len(all), got, want, recent)
			}
			if w.Len() != len(recent) {
				t.Fatalf("stream %d: Len = %d, want %d", stream, w.Len(), len(recent))
			}
		}
	}
}
