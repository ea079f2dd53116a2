package bench

import (
	"bytes"
	"testing"
)

// TestParallelGridOutputMatchesSerial is the determinism guarantee behind
// Options.Parallel: every grid cell owns its simulation engine and RNG, so
// fanning the grid across workers must produce byte-identical experiment
// output — not merely statistically similar numbers. It runs the grid
// experiments at 8 workers and compares the rendered bytes with the serial
// reference.
func TestParallelGridOutputMatchesSerial(t *testing.T) {
	ref := referenceOutputs(t)
	par := New(Options{Seed: 7, Quick: true, Parallel: 8})

	// table4 exercises the MainEval grid; fig15 the pair study; fig16 the
	// overlap sweep (reusing the memoized MainEval within each harness).
	for _, id := range []string{"table4", "fig15", "fig16"} {
		var b bytes.Buffer
		if err := par.Run(id, &b); err != nil {
			t.Fatalf("parallel %s: %v", id, err)
		}
		if !bytes.Equal(ref[id], b.Bytes()) {
			t.Errorf("%s: parallel output differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, ref[id], b.String())
		}
	}
}

// TestGridMapOrdersAndFallsBack covers the helper directly: inline path
// for Parallel<=1, fan-out path otherwise, both index-ordered.
func TestGridMapOrdersAndFallsBack(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		h := New(Options{Seed: 7, Parallel: workers})
		out := gridMap(h, 50, func(i int) int { return i * 3 })
		if len(out) != 50 {
			t.Fatalf("Parallel=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*3 {
				t.Fatalf("Parallel=%d: out[%d] = %d, want %d", workers, i, v, i*3)
			}
		}
	}
}
