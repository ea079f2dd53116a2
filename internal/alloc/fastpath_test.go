package alloc

import (
	"math/rand"
	"testing"

	"krisp/internal/gpu"
)

// fakeOcc is a scriptable Occupancy for cache tests: counters, generation
// and busy count are set directly.
type fakeOcc struct {
	counters []int
	gen      uint64
	busy     int
}

func (f *fakeOcc) CountersView() []int  { return f.counters }
func (f *fakeOcc) OccupancyGen() uint64 { return f.gen }
func (f *fakeOcc) BusyCUs() int         { return f.busy }

// bump mutates one counter the way a device launch/completion would:
// counters change and the generation advances.
func (f *fakeOcc) bump(cu, delta int) {
	f.counters[cu] += delta
	f.gen++
	f.busy = 0
	for _, c := range f.counters {
		if c > 0 {
			f.busy++
		}
	}
}

func randomRequest(rng *rand.Rand) Request {
	req := Request{
		NumCUs: rng.Intn(70),
		Policy: Policy(rng.Intn(3)),
	}
	switch rng.Intn(3) {
	case 0:
		req.OverlapLimit = 0
	case 1:
		req.OverlapLimit = rng.Intn(12)
	default:
		req.OverlapLimit = NoOverlapLimit
	}
	if rng.Intn(2) == 0 {
		req.MinGrant = rng.Intn(61)
	}
	return req
}

// TestAllocatorMatchesGenerateMask drives one reused Allocator through
// random counter states and requests and checks every mask against a
// fresh-allocator call — scratch state leaking between calls would
// diverge them.
func TestAllocatorMatchesGenerateMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAllocator(gpu.MI50)
	counters := make([]int, 60)
	for iter := 0; iter < 2000; iter++ {
		for i := range counters {
			counters[i] = rng.Intn(4)
		}
		req := randomRequest(rng)
		got := a.Generate(counters, req)
		want := GenerateMask(gpu.MI50, counters, req)
		if !got.Equal(want) {
			t.Fatalf("iter %d req %+v: reused allocator %v, fresh %v", iter, req, got, want)
		}
	}
}

// TestAllocatorZeroAllocs asserts the dispatch fast path allocates
// nothing, including when the MinGrant progress-floor extension fires.
func TestAllocatorZeroAllocs(t *testing.T) {
	a := NewAllocator(gpu.MI50)
	busy := make([]int, 60)
	for i := range busy {
		busy[i] = 1 + i%2
	}
	cases := []struct {
		name     string
		counters []int
		req      Request
	}{
		{"idle", nil, Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 15}},
		{"busy", busy, Request{NumCUs: 22, OverlapLimit: NoOverlapLimit}},
		{"floor-extension", busy, Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 30}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, func() {
			_ = a.Generate(tc.counters, tc.req)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestMaskCacheMatchesUncached runs a mutation script through a MaskCache
// and checks every served mask — hit or miss, idle or busy — against an
// uncached computation on the same counters.
func TestMaskCacheMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewMaskCache(gpu.MI50)
	occ := &fakeOcc{counters: make([]int, 60)}
	for iter := 0; iter < 3000; iter++ {
		switch rng.Intn(5) {
		case 0: // return to idle
			for i := range occ.counters {
				occ.counters[i] = 0
			}
			occ.gen++
			occ.busy = 0
		case 1, 2: // occupancy change
			occ.bump(rng.Intn(60), 1)
		default: // unchanged state — exercises the generation-keyed hit
		}
		req := randomRequest(rng)
		got := c.Generate(occ, req)
		var counters []int
		if occ.busy > 0 {
			counters = occ.counters
		}
		want := GenerateMask(gpu.MI50, counters, req)
		if !got.Equal(want) {
			t.Fatalf("iter %d req %+v gen %d busy %d: cached %v, uncached %v",
				iter, req, occ.gen, occ.busy, got, want)
		}
	}
	if c.Hits == 0 {
		t.Error("mutation script never hit the cache")
	}
	if c.Misses == 0 {
		t.Error("mutation script never missed the cache")
	}
}

// TestIdleMaskIndependentOfMinGrant backs the idle-cache design: with
// every counter zero no CU is busy, the MinGrant cap cannot fire and the
// floor cannot come up short, so idle masks must vary with neither
// MinGrant nor the overlap limit (the cache keys them on policy and
// clamped NumCUs alone), and requests outside [1, TotalCUs] must match
// the clamped ones.
func TestIdleMaskIndependentOfMinGrant(t *testing.T) {
	for _, p := range []Policy{Conserved, Distributed, Packed} {
		for n := -1; n <= 62; n++ {
			base := GenerateMask(gpu.MI50, nil, Request{NumCUs: min(max(n, 1), 60), Policy: p})
			for _, limit := range []int{0, 3, NoOverlapLimit} {
				for _, mg := range []int{0, 1, 15, 60} {
					got := GenerateMask(gpu.MI50, nil, Request{NumCUs: n, OverlapLimit: limit, Policy: p, MinGrant: mg})
					if !got.Equal(base) {
						t.Fatalf("policy %v limit %d n %d: MinGrant %d changed idle mask", p, limit, n, mg)
					}
				}
			}
		}
	}
}

// TestMaskCacheHitServesCachedGrid asserts the cache actually serves the
// dominant shapes from cache: an idle-device repeat and a same-generation
// busy repeat must both count as hits.
func TestMaskCacheHitServesCachedGrid(t *testing.T) {
	c := NewMaskCache(gpu.MI50)
	occ := &fakeOcc{counters: make([]int, 60)}
	req := Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 60}
	first := c.Generate(occ, req)
	again := c.Generate(occ, req)
	if c.Hits != 1 || !first.Equal(again) {
		t.Fatalf("idle repeat: hits = %d, masks equal = %v", c.Hits, first.Equal(again))
	}
	occ.bump(3, 1)
	busyReq := Request{NumCUs: 10, OverlapLimit: 0, MinGrant: 15}
	first = c.Generate(occ, busyReq)
	again = c.Generate(occ, busyReq)
	if c.Hits != 2 || !first.Equal(again) {
		t.Fatalf("busy repeat: hits = %d, masks equal = %v", c.Hits, first.Equal(again))
	}
	occ.bump(3, 1) // generation moves: cached busy entry must be dropped
	misses := c.Misses
	_ = c.Generate(occ, busyReq)
	if c.Misses != misses+1 {
		t.Fatalf("stale generation served from cache (misses %d -> %d)", misses, c.Misses)
	}
}
