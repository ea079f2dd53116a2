package bench

import (
	"bytes"
	"testing"

	"krisp/internal/telemetry"
)

// TestTelemetryOutputByteIdentical is the harness-level half of the
// byte-identical contract: a telemetry-enabled run (registry + tracer
// shared across every grid cell) must render exactly the same experiment
// bytes as a run with telemetry off.
func TestTelemetryOutputByteIdentical(t *testing.T) {
	ref := referenceOutputs(t)
	traced := New(Options{Seed: 7, Quick: true, Parallel: 1, Telemetry: telemetry.NewHub(true)})

	var b bytes.Buffer
	if err := traced.Run("table4", &b); err != nil {
		t.Fatalf("traced: %v", err)
	}
	if !bytes.Equal(ref["table4"], b.Bytes()) {
		t.Errorf("telemetry changed experiment output\n--- off ---\n%s\n--- on ---\n%s",
			ref["table4"], b.String())
	}
}

// TestParallelGridSharesRegistry drives telemetry-enabled grid cells from
// the parallel harness: every cell of table4 writes the same shared
// registry (and tracer) concurrently. Run under -race this is the
// concurrent-writes exercise for the whole instrumented stack; the
// assertions check the shared handles accumulated across all cells, and
// that the rendered bytes still match the serial untraced reference.
func TestParallelGridSharesRegistry(t *testing.T) {
	ref := referenceOutputs(t)
	hub := telemetry.NewHub(true)
	h := New(Options{Seed: 7, Quick: true, Parallel: 8, Telemetry: hub})

	var out bytes.Buffer
	if err := h.Run("table4", &out); err != nil {
		t.Fatalf("table4: %v", err)
	}
	if !bytes.Equal(ref["table4"], out.Bytes()) {
		t.Errorf("traced parallel table4 differs from the serial reference\n--- serial ---\n%s\n--- traced parallel ---\n%s",
			ref["table4"], out.String())
	}
	if v := hub.Registry().Counter("krisp_hsa_dispatches_total{gpu=\"0\"}", "").Value(); v == 0 {
		t.Error("no dispatches recorded across the grid")
	}
	if v := hub.Registry().Counter("krisp_server_batches_total{model=\"albert\"}", "").Value(); v == 0 {
		t.Error("no albert batches recorded across the grid")
	}
	if hub.Trace().CountCat("kernel") == 0 {
		t.Error("no kernel spans recorded across the grid")
	}
}
