package main

import (
	"math"
	"strings"
	"testing"

	"krisp/internal/sim"
)

// TestParseFaultFlags checks the -degrade and -down parsers against a
// 3-node, 2-GPU fleet: well-formed faults inside the fleet parse, and
// malformed ones or ones naming a node or GPU the fleet does not have are
// rejected with a message instead of being dropped at fleet build.
func TestParseFaultFlags(t *testing.T) {
	const nodes, gpus = 3, 2
	for _, tc := range []struct {
		flag, arg string
		wantErr   string // empty: must parse
	}{
		{"degrade", "1:0:3.0", ""},
		{"degrade", "2:1:0", ""},
		{"degrade", "1:0", "want node:gpu:stretch"},
		{"degrade", "x:0:3", "want node:gpu:stretch"},
		{"degrade", "3:0:3.0", "node 3 outside the 3-node fleet"},
		{"degrade", "-1:0:3.0", "node -1 outside"},
		{"degrade", "1:2:3.0", "gpu 2 outside the 2 GPUs per node"},
		{"degrade", "1:-1:3.0", "gpu -1 outside"},
		{"degrade", "1:0:-0.5", "negative stretch"},
		{"down", "2:120", ""},
		{"down", "0:0:80", ""},
		{"down", "2", "want node:at_ms[:dur_ms]"},
		{"down", "2:120:x", "want node:at_ms[:dur_ms]"},
		{"down", "7:20", "node 7 outside the 3-node fleet"},
		{"down", "-1:20", "node -1 outside"},
		{"down", "1:-20", "negative at_ms"},
		{"down", "1:20:-5", "negative dur_ms"},
	} {
		var err error
		if tc.flag == "degrade" {
			_, _, _, err = parseDegrade(tc.arg, nodes, gpus)
		} else {
			_, _, _, err = parseDown(tc.arg, nodes)
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("-%s %s: unexpected error %v", tc.flag, tc.arg, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("-%s %s: accepted, want error containing %q", tc.flag, tc.arg, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("-%s %s: error %q, want it to contain %q", tc.flag, tc.arg, err, tc.wantErr)
		}
	}
}

// TestParseFaultFlagValues checks that accepted faults keep their values,
// with millisecond times converted to virtual microseconds.
func TestParseFaultFlagValues(t *testing.T) {
	n, g, s, err := parseDegrade("2:1:2.5", 3, 2)
	if err != nil || n != 2 || g != 1 || s != 2.5 {
		t.Fatalf("parseDegrade = %d, %d, %v, %v; want 2, 1, 2.5, nil", n, g, s, err)
	}
	n, at, dur, err := parseDown("1:120:80", 3)
	if err != nil || n != 1 || at != 120*sim.Millisecond || dur != 80*sim.Millisecond {
		t.Fatalf("parseDown = %d, %v, %v, %v; want 1, 120ms, 80ms, nil", n, at, dur, err)
	}
	if _, _, dur, _ := parseDown("1:120", 3); dur != 0 {
		t.Fatalf("parseDown without a duration: dur = %v, want 0 (stays down)", dur)
	}
}

// TestShapeValidate checks the fleet shape and timing flags: the defaults
// pass, and each impossible value is rejected with a message naming its
// flag instead of being swapped for a library default.
func TestShapeValidate(t *testing.T) {
	defaults := shape{
		nodes: 3, gpus: 2, batch: 8, llmSeqs: 8,
		tickUs: 2000, epochMs: 50, durationMs: 300,
		rate: 5000, llmRate: 300,
	}
	if err := defaults.validate(); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, tc := range []struct {
		mutate  func(*shape)
		wantErr string // empty: must pass
	}{
		{func(s *shape) { s.nodes = 0 }, "-nodes 0: must be at least 1"},
		{func(s *shape) { s.nodes = -2 }, "-nodes -2"},
		{func(s *shape) { s.gpus = 0 }, "-gpus 0: must be at least 1"},
		{func(s *shape) { s.batch = 0 }, "-batch 0: must be at least 1"},
		{func(s *shape) { s.llmSeqs = 0 }, "-llm-maxseqs 0: must be at least 1"},
		{func(s *shape) { s.tickUs = 0 }, "-tick-us 0: must be at least 1"},
		{func(s *shape) { s.epochMs = -1 }, "-epoch-ms -1: must be at least 1"},
		{func(s *shape) { s.durationMs = 0 }, "-duration-ms 0: must be at least 1"},
		{func(s *shape) { s.rate = -100 }, "-rate -100: must be >= 0"},
		{func(s *shape) { s.llmRate = -1 }, "-llm-rate -1: must be >= 0"},
		{func(s *shape) { s.rate = math.NaN() }, "-rate NaN"},
		{func(s *shape) { s.nodes, s.gpus, s.batch, s.llmSeqs = 1, 1, 1, 1 }, ""},
		{func(s *shape) { s.tickUs, s.epochMs, s.durationMs = 1, 1, 1 }, ""},
		{func(s *shape) { s.rate, s.llmRate = 0, 0 }, ""},
	} {
		s := defaults
		tc.mutate(&s)
		err := s.validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", s, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%+v: accepted, want error containing %q", s, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%+v: error %q, want it to contain %q", s, err, tc.wantErr)
		}
	}
}
