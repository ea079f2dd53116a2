package gateway

// Budget is the global retry/hedge budget: secondary traffic (hedge copies
// and retries of failed requests) is capped to a ratio of primary traffic,
// so a fleet-wide outage can never be amplified into a retry storm. Every
// primary send credits Ratio tokens (banked up to Burst); every hedge or
// retry debits one. When the bank is empty, secondaries are denied — the
// invariant, counter-checked by the chaos tests, is
//
//	hedges + retries <= Ratio * primaries + Burst
//
// at every point in the run.
type Budget struct {
	ratio  float64
	burst  float64
	tokens float64

	denied uint64
}

// NewBudget builds a budget. ratio <= 0 disables secondaries entirely;
// burst is the slack that lets hedging start before many primaries have
// been credited.
func NewBudget(ratio, burst float64) Budget {
	return Budget{ratio: ratio, burst: burst, tokens: burst}
}

// Credit banks the budget earned by one primary send.
func (b *Budget) Credit() {
	if b.ratio <= 0 {
		return
	}
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Take reserves one secondary send. A disabled budget (ratio <= 0) always
// denies.
func (b *Budget) Take() bool {
	if b.ratio <= 0 || b.tokens < 1 {
		b.denied++
		return false
	}
	b.tokens--
	return true
}

// Refund returns a reservation that was not used (no alternative replica
// was available for the hedge or retry).
func (b *Budget) Refund() {
	if b.ratio <= 0 {
		return
	}
	b.tokens++
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Denied returns how many secondary sends the budget refused.
func (b *Budget) Denied() uint64 { return b.denied }
