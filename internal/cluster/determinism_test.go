package cluster

import (
	"reflect"
	"testing"
)

// TestSeedChangesOutcome guards the determinism tests from the other side:
// a fleet that ignored its seed would make them vacuous.
func TestSeedChangesOutcome(t *testing.T) {
	a := func() *Result {
		cfg := baseConfig(t)
		cfg.RecordRouting = true
		return Run(cfg)
	}()
	cfg := baseConfig(t)
	cfg.Seed = 43
	cfg.RecordRouting = true
	b := Run(cfg)
	if a.RoutingLog == b.RoutingLog {
		t.Fatal("different seeds produced identical routing logs")
	}
}

// TestRepeatedRunsIdentical: two fresh fleets with the same config are
// bit-identical — no hidden global state leaks between runs.
func TestRepeatedRunsIdentical(t *testing.T) {
	mk := func() *Result {
		cfg := baseConfig(t)
		cfg.RecordRouting = true
		return Run(cfg)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs diverged:\n%+v\n%+v", a, b)
	}
}
