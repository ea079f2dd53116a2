package main

import (
	"math"
	"strings"
	"testing"

	"krisp/internal/models"
)

// TestRunFlagsValidate checks that flags describing no run are rejected
// with a message naming the flag, and that the edge values that do
// describe a run pass.
func TestRunFlagsValidate(t *testing.T) {
	model := func(name string) models.Model {
		m, ok := models.ByName(name)
		if !ok {
			t.Fatalf("unknown model %q", name)
		}
		return m
	}
	squeezenet, mobilenet := model("squeezenet"), model("mobilenet")
	defaults := runFlags{models: []models.Model{squeezenet}, workers: 2, batch: 32, gpus: 1}
	if err := defaults.validate(); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, tc := range []struct {
		mutate  func(*runFlags)
		wantErr string // empty: must pass
	}{
		{func(f *runFlags) { f.workers = 0 }, "-workers 0: must be at least 1"},
		{func(f *runFlags) { f.batch = 0 }, "-batch 0: must be at least 1"},
		{func(f *runFlags) { f.batch = -3 }, "-batch -3: must be at least 1"},
		{func(f *runFlags) { f.gpus = 0 }, "-gpus 0: must be at least 1"},
		{func(f *runFlags) { f.gpus = -2 }, "-gpus -2: must be at least 1"},
		{func(f *runFlags) { f.rate = -100 }, "-rate -100: must be >= 0"},
		{func(f *runFlags) { f.rate = math.NaN() }, "-rate NaN"},
		{func(f *runFlags) { f.models, f.rate = []models.Model{squeezenet, mobilenet}, 100 }, "open-loop serving takes one model"},
		{func(f *runFlags) { f.models, f.rate = []models.Model{squeezenet, squeezenet}, 100 }, ""},
		{func(f *runFlags) { f.models = []models.Model{squeezenet, mobilenet} }, ""},
		{func(f *runFlags) { f.workers, f.batch, f.gpus = 1, 1, 1 }, ""},
		{func(f *runFlags) { f.rate = 3000 }, ""},
	} {
		f := defaults
		tc.mutate(&f)
		err := f.validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", f, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%+v: accepted, want error containing %q", f, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%+v: error %q, want it to contain %q", f, err, tc.wantErr)
		}
	}
}
