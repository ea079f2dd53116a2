package models

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"krisp/internal/gpu"
	"krisp/internal/kernels"
	"krisp/internal/profile"
)

// TestMemoizedProfilesMatchFresh is the exactness guarantee behind the
// recipe's profiling memo: its database, sweep and right-size equal what a
// fresh profiler builds, for every model at two batches, for a Custom
// recipe that reuses a Table III name, and under a non-default spec and
// launch cost (each a key of its own, never a neighbour's entry).
func TestMemoizedProfilesMatchFresh(t *testing.T) {
	taxed := profile.DefaultConfig()
	taxed.Spec.InterferenceTax = 2.0
	slowLaunch := profile.DefaultConfig()
	slowLaunch.LaunchOverhead = 12
	// A Tolerance of 0 means the 5% default, so it shares the default key.
	unnormalized := profile.DefaultConfig()
	unnormalized.Tolerance = 0

	impostor := Custom("albert", 0, squeezenet.recipe.build)
	for _, cfg := range []profile.Config{profile.DefaultConfig(), taxed, slowLaunch, unnormalized} {
		fresh := profile.New(cfg)
		for _, m := range append(All(), impostor) {
			for _, batch := range []int{8, CalibrationBatch} {
				ks := m.Kernels(batch)
				want := profile.NewDB()
				want.Profile(fresh, ks)
				if got := m.DB(cfg, batch); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%d %+v: memoized DB differs from a fresh profile", m.Name, batch, cfg)
				}
				if got, want := m.Sweep(cfg, batch), fresh.CUSweep(ks); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%d %+v: memoized sweep differs from a fresh one", m.Name, batch, cfg)
				}
				if got, want := m.RightSize(cfg, batch), fresh.ModelRightSize(ks); got != want {
					t.Fatalf("%s/%d %+v: memoized right-size %d, fresh %d", m.Name, batch, cfg, got, want)
				}
			}
		}
	}
	albert, _ := ByName("albert")
	cfg := profile.DefaultConfig()
	if reflect.DeepEqual(impostor.DB(cfg, 8), albert.DB(cfg, 8)) {
		t.Fatal("a Custom recipe named albert got albert's database")
	}
	if impostor.DB(cfg, 8) != impostor.DB(unnormalized, 8) {
		t.Fatal("Tolerance 0 and the 5% default profiled twice")
	}
}

// TestProfilesConcurrentFirstUse builds one recipe's profiles from many
// goroutines at once (grid harnesses serve cells concurrently); under
// -race this covers the memo's lock and once-guards, and every caller must
// get the same database and sweep.
func TestProfilesConcurrentFirstUse(t *testing.T) {
	m := Custom("concurrent", 10, resnet152.recipe.build)
	cfg := profile.DefaultConfig()
	const workers = 8
	dbs := make([]*profile.DB, workers)
	sweeps := make([][]profile.SweepPoint, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dbs[w] = m.DB(cfg, 16)
			sweeps[w] = m.Sweep(cfg, 16)
			_ = m.RightSize(cfg, 16)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if dbs[w] != dbs[0] || &sweeps[w][0] != &sweeps[0][0] {
			t.Fatal("concurrent first use profiled more than once")
		}
	}
}

// TestDroppedRecipeIsCollected checks that profiles live on the recipe and
// nowhere process-wide: once a Custom model is dropped, its recipe, with
// the sequences and profiles it memoized, is garbage.
func TestDroppedRecipeIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		m := Custom("dropped", 10, func(batch int) []kernels.Desc {
			return squeezenet.Kernels(batch)
		})
		cfg := profile.Config{Spec: gpu.MI50Spec(), LaunchOverhead: 6}
		m.DB(cfg, 8)
		m.RightSize(cfg, 8)
		runtime.SetFinalizer(m.recipe, func(*recipe) { close(collected) })
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped Custom recipe was never collected")
}
