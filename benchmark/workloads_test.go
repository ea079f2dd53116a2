package main

import (
	"testing"

	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// shortRunner sets a workload up and shortens its runs to about 100ms of
// virtual time.
func shortRunner(t *testing.T, w *benchWorkload) runner {
	t.Helper()
	r, err := w.setup(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	switch r := r.(type) {
	case *fleetRunner:
		r.duration = 100 * sim.Millisecond
	case *gridRunner:
		r.measure = 100*sim.Millisecond - gridWarmup
	default:
		t.Fatalf("unknown runner %T", r)
	}
	return r
}

// TestWorkloadsDeterministic runs each workload twice, and once more with
// telemetry attached, and requires equal digests: the benchmark's output
// check and its traced count pass both rest on this.
func TestWorkloadsDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r := shortRunner(t, w)
			// Grid runs 1, 3 and 5 are its three policies at four workers.
			for _, run := range []int{1, 3, 5} {
				var digests [3]uint64
				for k, hub := range []*telemetry.Hub{nil, nil, telemetry.NewHub(false)} {
					o, err := r.run(run, hub).outcome()
					if err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
					if o.VS <= 0 || o.Completed == 0 {
						t.Fatalf("run %d simulated %v vs and completed %d", run, o.VS, o.Completed)
					}
					digests[k] = o.Digest
				}
				if digests[0] != digests[1] || digests[0] != digests[2] {
					t.Fatalf("run %d digests %x (first), %x (second), %x (telemetry)", run, digests[0], digests[1], digests[2])
				}
			}
		})
	}
}

func TestRunsForKeepsTenBeyondP90(t *testing.T) {
	for i := range workloads {
		if n := runsFor(&workloads[i], 1); n < minRuns {
			t.Errorf("%s: %d runs at 1s", workloads[i].name, n)
		}
	}
}
