package server

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"krisp/internal/faults"
	"krisp/internal/policies"
	"krisp/internal/telemetry"
	"krisp/internal/trace"
)

// writeResult folds every field of a Result into h. Floats print in their
// shortest round-trip form, so the digest is bit-exact.
func writeResult(h hash.Hash, r *Result) {
	fmt.Fprintf(h, "policy=%v window=%v rps=%v energy=%v epi=%v busy=%v oversub=%v interrupted=%v\n",
		r.Policy, r.WindowUs, r.RPS, r.EnergyJ, r.EnergyPerInference, r.AvgBusyCUs, r.Oversubscribed, r.Interrupted)
	if r.Faults != nil {
		fmt.Fprintf(h, "faults=%+v\n", *r.Faults)
	}
	for _, w := range r.Workers {
		fmt.Fprintf(h, "worker %s/%d batches=%d requests=%d lat=%v\n",
			w.Model, w.Batch, w.Batches, w.Requests, w.BatchLatency.Values())
	}
}

// TestRunOutputDigests pins the complete output of Run and RunOpenLoop —
// every windowed stat and latency sample, plus the kernel trace and the
// telemetry exposition when attached — across the closed-loop, emulated,
// model-wise, chaos and open-loop serving paths. A change to how the
// server drives batches must leave every digest untouched; a change that
// is meant to alter results re-pins the affected rows and says why.
func TestRunOutputDigests(t *testing.T) {
	sq := mustModel(t, "squeezenet")
	mb := mustModel(t, "mobilenet")
	base := func(p policies.Kind, ws ...WorkerSpec) Config {
		return Config{Policy: p, Workers: ws, Seed: 5, Warmup: 10_000, Measure: 120_000}
	}
	chaos := reuseScenarios(t)["chaos"]
	cases := []struct {
		name string
		want uint64
		run  func(h hash.Hash)
	}{
		{"krisp-i", 0x6d46ed737cc6afa1, func(h hash.Hash) {
			r := Run(base(policies.KRISPI, WorkerSpec{Model: sq, Batch: 32}))
			writeResult(h, &r)
		}},
		{"krisp-o-2gpu-mixed", 0x3a21137bd759b944, func(h hash.Hash) {
			cfg := base(policies.KRISPO,
				WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: mb, Batch: 16},
				WorkerSpec{Model: mb, Batch: 8}, WorkerSpec{Model: sq, Batch: 16})
			cfg.GPUs = 2
			r := Run(cfg)
			writeResult(h, &r)
		}},
		{"model-right-size", 0x21c9eda252e034d0, func(h hash.Hash) {
			r := Run(base(policies.ModelRightSize,
				WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: mb, Batch: 16}, WorkerSpec{Model: sq, Batch: 8}))
			writeResult(h, &r)
		}},
		{"mrs-request", 0xa101ff52e37e3a36, func(h hash.Hash) {
			r := Run(base(policies.MRSRequest,
				WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: mb, Batch: 16}))
			writeResult(h, &r)
		}},
		{"force-emulation", 0xa4d3ee8b915c08e6, func(h hash.Hash) {
			cfg := base(policies.KRISPI, WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: mb, Batch: 16})
			cfg.ForceEmulation = true
			r := Run(cfg)
			writeResult(h, &r)
		}},
		{"chaos", 0xe2920e9d5b1cad8d, func(h hash.Hash) {
			r := Run(chaos())
			writeResult(h, &r)
		}},
		{"chaos-ioctl-emulated", 0xad19bb4b84f8396d, func(h hash.Hash) {
			cfg := base(policies.KRISPI, WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: mb, Batch: 16})
			cfg.ForceEmulation = true
			cfg.Faults = &faults.Plan{
				Seed:    4,
				IOCTL:   faults.IOCTLFaults{FailProb: 0.2},
				Kernels: faults.KernelFaults{TransientFailProb: 0.01},
			}
			r := Run(cfg)
			writeResult(h, &r)
		}},
		{"trace", 0xf5330c6b538a1a99, func(h hash.Hash) {
			tr := &trace.Trace{}
			cfg := base(policies.KRISPO, WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: mb, Batch: 16})
			cfg.Trace = tr
			r := Run(cfg)
			writeResult(h, &r)
			if err := tr.WriteCSV(h); err != nil {
				t.Fatal(err)
			}
		}},
		{"telemetry", 0x991447e7caa5ac78, func(h hash.Hash) {
			hub := telemetry.NewHub(true)
			cfg := base(policies.KRISPI, WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: mb, Batch: 16})
			cfg.GPUs = 2
			cfg.Telemetry = hub
			r := Run(cfg)
			writeResult(h, &r)
			if err := hub.Reg.WritePrometheus(h); err != nil {
				t.Fatal(err)
			}
			if err := hub.Tracer.WriteChromeTrace(h); err != nil {
				t.Fatal(err)
			}
		}},
		{"open-loop-3000", 0x16e8e97736030a3e, func(h hash.Hash) {
			r := RunOpenLoop(base(policies.KRISPI, WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: sq, Batch: 32}),
				Arrival{RatePerSec: 3000})
			writeResult(h, &r.Result)
			fmt.Fprintf(h, "offered=%v completed=%v mean=%v lat=%v\n", r.Offered, r.Completed, r.MeanBatch, r.RequestLatency.Values())
		}},
		{"open-loop-6000", 0x63eca9355abcf7e8, func(h hash.Hash) {
			r := RunOpenLoop(base(policies.KRISPI, WorkerSpec{Model: sq, Batch: 32}, WorkerSpec{Model: sq, Batch: 32}),
				Arrival{RatePerSec: 6000})
			writeResult(h, &r.Result)
			fmt.Fprintf(h, "offered=%v completed=%v mean=%v lat=%v\n", r.Offered, r.Completed, r.MeanBatch, r.RequestLatency.Values())
		}},
	}
	for _, c := range cases {
		h := fnv.New64a()
		c.run(h)
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
