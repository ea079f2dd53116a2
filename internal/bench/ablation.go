package bench

import (
	"fmt"
	"io"

	"krisp/internal/alloc"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/metrics"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/server"
)

// Ablation quantifies KRISP's individual design choices (DESIGN.md §3/§4):
//
//  1. the Conserved CU distribution policy versus Distributed/Packed for
//     the per-kernel masks (the Fig. 7/8 decision, measured end to end);
//  2. the fair-share progress floor in Algorithm 1's allocation;
//  3. sensitivity of KRISP-I's advantage to the co-location interference
//     tax (how much of the win depends on sharing being destructive).
//
// All runs use 4 concurrent workers at batch 32, normalized to one
// isolated worker, geomean over a contention-sensitive model subset.
func (h *Harness) Ablation(w io.Writer) {
	title(w, "Ablation: KRISP design choices (4 workers, geomean normalized RPS)")
	names := []string{"squeezenet", "resnet152", "resnext101", "vgg19"}
	if h.opts.Quick {
		names = names[:2]
	}
	ms := make([]models.Model, len(names))
	iso := make([]float64, len(names))
	for i, n := range names {
		m, ok := models.ByName(n)
		if !ok {
			panic("bench: unknown ablation model " + n)
		}
		ms[i] = m
		iso[i] = h.runServer(m, models.CalibrationBatch, 1, policies.MPSDefault, nil).RPS
	}

	scale := 1.0
	if h.opts.Quick {
		scale = 0.25
	}
	run := func(hsaCfg hsa.Config, spec gpu.DeviceSpec) float64 {
		var vals []float64
		for i, m := range ms {
			specs := make([]server.WorkerSpec, 4)
			for j := range specs {
				specs[j] = server.WorkerSpec{Model: m, Batch: models.CalibrationBatch}
			}
			cfg := server.Config{
				Spec:         spec,
				HSA:          hsaCfg,
				Policy:       policies.KRISPI,
				Workers:      specs,
				Seed:         h.opts.Seed,
				MeasureScale: scale,
				Telemetry:    h.opts.Telemetry,
			}
			res := server.Run(cfg)
			vals = append(vals, res.RPS/iso[i])
		}
		return metrics.Geomean(vals)
	}

	var t table
	t.addHeader("variant", "geomean norm RPS")

	// 1. Distribution policy of the kernel resource masks.
	for _, p := range []alloc.Policy{alloc.Conserved, alloc.Distributed, alloc.Packed} {
		cfg := hsa.DefaultConfig()
		cfg.AllocPolicy = p
		t.addRow("alloc policy: "+p.String(), fmt.Sprintf("%.2f", run(cfg, gpu.DeviceSpec{})))
	}

	// 2. Fair-share progress floor.
	noFloor := hsa.DefaultConfig()
	noFloor.NoFairShare = true
	t.addRow("no fair-share floor", fmt.Sprintf("%.2f", run(noFloor, gpu.DeviceSpec{})))

	// 3. Interference tax sensitivity: KRISP-I itself barely moves (it
	// isolates), so this row mostly shows robustness of the result.
	for _, tax := range []float64{0, 0.5, 2.0} {
		spec := gpu.MI50Spec()
		spec.InterferenceTax = tax
		t.addRow(fmt.Sprintf("interference tax %.1f", tax),
			fmt.Sprintf("%.2f", run(hsa.DefaultConfig(), spec)))
	}

	t.render(w)
	fmt.Fprintln(w, "baseline variant is 'alloc policy: conserved' (KRISP's published design)")
}
