package telemetry

// tsdb.go is the windowed time-series store: a fixed-size ring of per-metric
// rollups over virtual time. It exists for one consumer — the multi-window
// SLO burn-rate monitors (burnrate.go) need "how many requests, and how many
// bad, over the last fast/slow window" at every tick — but the shape is
// generic: bucketed counts, bad counts, and value sums over a rolling span
// of virtual microseconds.
//
// Design constraints mirror the rest of the package: Observe is called from
// the fleet's completion path on every request, so after construction it
// never allocates; the ring is fixed at creation, advancing the head only
// zeroes stale buckets in place. Unlike Counter/Gauge/Histogram the Series
// is NOT concurrency-safe — the fleet observer runs single-goroutine on the
// coordinator (nodes advance in parallel, bookkeeping does not), and paying
// atomics here would be pure overhead. Timestamps are int64 virtual
// microseconds, deliberately not sim.Time: telemetry stays import-free of
// the simulation core.

// SeriesPoint is one rollup bucket of a Series: all observations whose
// timestamp fell inside [Start, Start+width).
type SeriesPoint struct {
	Start int64   // bucket start, virtual microseconds
	Count uint64  // observations in the bucket
	Bad   uint64  // observations flagged bad (SLO miss, shed, failure)
	Sum   float64 // sum of observed values
}

// Series is a fixed ring of time-bucketed rollups. Observations land in the
// bucket covering their timestamp; buckets older than the ring's reach are
// overwritten in place. Zero allocations after New.
type Series struct {
	buckets []SeriesPoint
	width   int64 // bucket width, virtual microseconds
	headWin int64 // highest window number observed; -1 before first Observe
}

// NewSeries creates a ring of n buckets of widthUs virtual microseconds
// each, covering a rolling span of n*widthUs.
func NewSeries(widthUs int64, n int) *Series {
	if widthUs <= 0 || n < 1 {
		panic("telemetry: NewSeries needs widthUs > 0, n >= 1")
	}
	return &Series{buckets: make([]SeriesPoint, n), width: widthUs, headWin: -1}
}

// Span returns the rolling span the ring covers, in virtual microseconds.
func (s *Series) Span() int64 { return s.width * int64(len(s.buckets)) }

// Observe records one observation at tsUs. Observations older than the
// ring's reach (relative to the newest seen) are dropped; observations in
// the future advance the head, zeroing any skipped buckets.
func (s *Series) Observe(tsUs int64, v float64, bad bool) {
	if s == nil || tsUs < 0 {
		return
	}
	win := tsUs / s.width
	n := int64(len(s.buckets))
	if win > s.headWin {
		// Advance the head, resetting every bucket between the old head and
		// the new one. A jump past the whole ring resets everything once.
		from := s.headWin + 1
		if win-from >= n {
			from = win - n + 1
		}
		for w := from; w <= win; w++ {
			s.buckets[w%n] = SeriesPoint{Start: w * s.width}
		}
		s.headWin = win
	} else if s.headWin-win >= n {
		return // older than the ring's reach
	}
	b := &s.buckets[win%n]
	b.Count++
	b.Sum += v
	if bad {
		b.Bad++
	}
}

// WindowStats sums the rollups covering (nowUs-windowUs, nowUs]. Buckets
// that only partially overlap the window count in full — the ring's bucket
// width is the rollup granularity, and callers size their windows as
// multiples of it.
func (s *Series) WindowStats(nowUs, windowUs int64) (count, bad uint64, sum float64) {
	if s == nil || s.headWin < 0 {
		return 0, 0, 0
	}
	from := nowUs - windowUs
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.Count == 0 && b.Bad == 0 {
			continue
		}
		// Include buckets that intersect (from, nowUs]: the bucket must end
		// after the window opens and start at or before now.
		if b.Start+s.width > from && b.Start <= nowUs {
			count += b.Count
			bad += b.Bad
			sum += b.Sum
		}
	}
	return count, bad, sum
}
