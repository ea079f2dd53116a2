package alloc

import (
	"krisp/internal/gpu"
)

// Occupancy is the Resource Monitor view a MaskCache reads: *gpu.Device
// implements it. CountersView must return the per-CU kernel counters of the
// current occupancy generation without allocating in steady state; the
// slice need only stay valid until the next occupancy change, as the cache
// reads it at once and never keeps it. OccupancyGen must return a counter
// that changes whenever those counters change.
type Occupancy interface {
	CountersView() []int
	OccupancyGen() uint64
	BusyCUs() int
}

// MaskCache memoizes Algorithm 1 for the two shapes that dominate the
// dispatch stream: idle-device requests (every kernel of a lone worker
// lands on an idle device between batches) and back-to-back requests
// against an unchanged occupancy state, invalidated by the device's
// occupancy generation counter. Cached masks are the allocator's own
// output, so cached and uncached runs are byte-identical.
type MaskCache struct {
	alloc *Allocator
	// idle holds the idle-device allocations: one row per policy, built on
	// the policy's first idle request, indexed by NumCUs clamped to
	// [1, TotalCUs] as Algorithm 1 clamps it; an empty mask marks a slot
	// not computed yet (an idle grant is never empty). When every counter
	// is zero the mask depends on nothing else: no CU is busy, so the
	// overlap limit is never consulted, the MinGrant cap cannot fire (the
	// full request fits in free CUs) and the progress floor cannot come up
	// short (no CU is skipped).
	idle [Packed + 1][]gpu.CUMask

	// Single-entry busy-state cache: valid while the device occupancy
	// generation still matches and the request is identical.
	busyGen   uint64
	busyReq   Request
	busyMask  gpu.CUMask
	busyValid bool

	// Hits and Misses count cache outcomes (for tests and benchmarks).
	Hits, Misses uint64
}

// NewMaskCache builds a cache (and its backing Allocator) for one device
// topology. Like the Allocator, it is confined to the simulation goroutine.
func NewMaskCache(topo gpu.Topology) *MaskCache {
	return &MaskCache{
		alloc: NewAllocator(topo),
	}
}

// Allocator returns the cache's backing allocator (for uncached calls that
// still want the scratch buffers).
func (c *MaskCache) Allocator() *Allocator { return c.alloc }

// Generate returns the Algorithm 1 mask for req against occ's current
// counters, serving it from cache when the occupancy state provably
// matches a previous call.
func (c *MaskCache) Generate(occ Occupancy, req Request) gpu.CUMask {
	if occ.BusyCUs() == 0 && req.Policy >= 0 && int(req.Policy) < len(c.idle) {
		row := c.idle[req.Policy]
		if row == nil {
			row = make([]gpu.CUMask, c.alloc.topo.TotalCUs()+1)
			c.idle[req.Policy] = row
		}
		n := min(max(req.NumCUs, 1), len(row)-1)
		if m := row[n]; !m.IsEmpty() {
			c.Hits++
			return m
		}
		m := c.alloc.Generate(nil, req)
		row[n] = m
		c.Misses++
		return m
	}
	gen := occ.OccupancyGen()
	if c.busyValid && c.busyGen == gen && c.busyReq == req {
		c.Hits++
		return c.busyMask
	}
	m := c.alloc.Generate(occ.CountersView(), req)
	c.busyGen, c.busyReq, c.busyMask, c.busyValid = gen, req, m, true
	c.Misses++
	return m
}
