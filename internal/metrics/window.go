package metrics

// LatWindow keeps the 64 most recent latency observations and serves their
// P95. The router keeps one per replica and the gateway one per model; both
// re-read the percentile after every completion, which made it one of the
// fleet's hottest non-simulation paths.
type LatWindow struct {
	buf     [64]float64
	n, next int
	dirty   bool
	p95v    float64
}

// Add records one observation, evicting the oldest once the window is full.
func (w *LatWindow) Add(v float64) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.dirty = true
}

// Len returns the number of observations held (at most 64).
func (w *LatWindow) Len() int { return w.n }

// P95 returns the window's 95th percentile: sorted[idx] for idx =
// ceil(n*0.95)-1, 0 when empty. That index for n <= 64 samples always lies
// within the top 4, so one pass keeping the k largest finds it with no copy
// and no sort — the k-th largest equals sorted[idx] even with duplicates.
// The value is cached until the next Add.
func (w *LatWindow) P95() float64 {
	if w.n == 0 {
		return 0
	}
	if w.dirty {
		idx := (w.n*95 + 99) / 100
		if idx > 0 {
			idx--
		}
		k := w.n - idx // p95 is the k-th largest sample; k in [1,4]
		var top [4]float64
		m := 0
		for _, v := range w.buf[:w.n] {
			if m < k {
				i := m
				for i > 0 && top[i-1] > v {
					top[i] = top[i-1]
					i--
				}
				top[i] = v
				m++
				continue
			}
			if v <= top[0] {
				continue
			}
			i := 0
			for i+1 < k && top[i+1] < v {
				top[i] = top[i+1]
				i++
			}
			top[i] = v
		}
		w.p95v = top[0]
		w.dirty = false
	}
	return w.p95v
}
