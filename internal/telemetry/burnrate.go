package telemetry

import "sync"

// burnrate.go implements multi-window SLO burn-rate monitoring over virtual
// time — the SRE error-budget alerting shape: the burn rate is the fraction
// of requests violating the objective divided by the error budget (so burn 1
// spends the budget exactly at the objective's horizon, burn 10 spends it
// 10x faster), and an alert requires BOTH a fast window (catches sudden
// cliffs quickly) and a slow window (suppresses blips) to burn hot.
//
// Everything is deterministic: observations and advances carry virtual-time
// timestamps, the state machine has no wall-clock or randomness, and two
// runs with identical traffic produce identical transition ticks. The
// monitor is single-goroutine like the Series underneath it; bound gauges
// are atomic so scrapes may race with advances.

// AlertState is the burn-rate alert level.
type AlertState int

const (
	AlertOK AlertState = iota
	AlertWarning
	AlertPage
)

// String returns the state's name.
func (s AlertState) String() string {
	switch s {
	case AlertOK:
		return "ok"
	case AlertWarning:
		return "warning"
	case AlertPage:
		return "page"
	default:
		return "unknown"
	}
}

// BurnConfig parameterises one monitor. Zero values take the defaults noted
// per field; windows should be multiples of WidthUs (the rollup
// granularity).
type BurnConfig struct {
	Objective    float64 // success objective, e.g. 0.99; default 0.99
	WidthUs      int64   // rollup bucket width; default 10_000 (10ms)
	FastWindowUs int64   // fast window; default 5*WidthUs
	SlowWindowUs int64   // slow window; default 30*WidthUs
	PageBurn     float64 // both-window burn rate that pages; default 10
	WarnBurn     float64 // both-window burn rate that warns; default 2
	ClearHoldUs  int64   // time below a level before de-escalating one step; default SlowWindowUs/2
	MinCount     uint64  // fast-window volume gate for escalation; default 10
}

func (c BurnConfig) withDefaults() BurnConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.99
	}
	if c.WidthUs <= 0 {
		c.WidthUs = 10_000
	}
	if c.FastWindowUs <= 0 {
		c.FastWindowUs = 5 * c.WidthUs
	}
	if c.SlowWindowUs <= 0 {
		c.SlowWindowUs = 30 * c.WidthUs
	}
	if c.PageBurn <= 0 {
		c.PageBurn = 10
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 2
	}
	if c.ClearHoldUs <= 0 {
		c.ClearHoldUs = c.SlowWindowUs / 2
	}
	if c.MinCount == 0 {
		c.MinCount = 10
	}
	return c
}

// BurnMonitor tracks one SLO's error-budget burn across a fast and a slow
// window and runs the ok → warning → page state machine. Escalation is
// immediate (volume-gated); de-escalation steps down ONE level only after
// the computed level has held below the current state for ClearHoldUs —
// the hysteresis that keeps alerts from flapping across window boundaries.
type BurnMonitor struct {
	Name string

	cfg    BurnConfig
	series *Series

	state       AlertState
	belowSince  int64 // virtual us the target level first held below state; -1 when not holding
	fast, slow  float64
	total, bad  uint64
	transitions int
	history     []AlertTransition // most recent transitionHistory changes

	gFast, gSlow, gState *Gauge
}

// transitionHistory bounds the per-monitor transition log.
const transitionHistory = 64

// AlertTransition is one recorded state change.
type AlertTransition struct {
	AtUs int64  `json:"at_us"`
	From string `json:"from"`
	To   string `json:"to"`
}

// NewBurnMonitor creates a monitor named name (conventionally the model)
// with cfg's windows. Nil-safe methods make an unused monitor free.
func NewBurnMonitor(name string, cfg BurnConfig) *BurnMonitor {
	cfg = cfg.withDefaults()
	n := int(cfg.SlowWindowUs/cfg.WidthUs) + 1
	return &BurnMonitor{
		Name:       name,
		cfg:        cfg,
		series:     NewSeries(cfg.WidthUs, n),
		belowSince: -1,
	}
}

// Bind registers the monitor's burn gauges (milli-burn-rate, so integer
// gauges keep two decimals) and state gauge (0 ok / 1 warning / 2 page)
// under the model label. Nil-safe.
func (m *BurnMonitor) Bind(reg *Registry) {
	if m == nil || reg == nil {
		return
	}
	label := `{model="` + m.Name + `"}`
	m.gFast = reg.Gauge("krisp_slo_burn_fast_milli"+label,
		"fast-window SLO error-budget burn rate x1000")
	m.gSlow = reg.Gauge("krisp_slo_burn_slow_milli"+label,
		"slow-window SLO error-budget burn rate x1000")
	m.gState = reg.Gauge("krisp_slo_burn_state"+label,
		"burn-rate alert state: 0 ok, 1 warning, 2 page")
}

// Observe records one request outcome at tsUs; bad marks an SLO violation,
// shed, or failure. Nil-safe, allocation-free.
func (m *BurnMonitor) Observe(tsUs int64, bad bool) {
	if m == nil {
		return
	}
	m.total++
	if bad {
		m.bad++
	}
	m.series.Observe(tsUs, 0, bad)
}

// burn computes the window's error-budget burn rate: (bad/count) divided by
// the error budget. An empty window burns 0.
func (m *BurnMonitor) burn(nowUs, windowUs int64) (float64, uint64) {
	count, bad, _ := m.series.WindowStats(nowUs, windowUs)
	if count == 0 {
		return 0, 0
	}
	budget := 1 - m.cfg.Objective
	return (float64(bad) / float64(count)) / budget, count
}

// Advance recomputes both windows at nowUs and steps the alert state
// machine. Call once per tick (or per rollup width); nil-safe.
func (m *BurnMonitor) Advance(nowUs int64) {
	if m == nil {
		return
	}
	var fastCount uint64
	m.fast, fastCount = m.burn(nowUs, m.cfg.FastWindowUs)
	m.slow, _ = m.burn(nowUs, m.cfg.SlowWindowUs)

	// The target level needs BOTH windows hot; escalation is also gated on
	// fast-window volume so a lone early failure cannot page an idle fleet.
	target := AlertOK
	if fastCount >= m.cfg.MinCount {
		switch {
		case m.fast >= m.cfg.PageBurn && m.slow >= m.cfg.PageBurn:
			target = AlertPage
		case m.fast >= m.cfg.WarnBurn && m.slow >= m.cfg.WarnBurn:
			target = AlertWarning
		}
	}

	switch {
	case target > m.state:
		m.record(nowUs, m.state, target)
		m.state = target
		m.belowSince = -1
		m.transitions++
	case target < m.state:
		if m.belowSince < 0 {
			m.belowSince = nowUs
		} else if nowUs-m.belowSince >= m.cfg.ClearHoldUs {
			m.record(nowUs, m.state, m.state-1)
			m.state-- // step down one level, then re-earn the next step
			m.belowSince = nowUs
			m.transitions++
		}
	default:
		m.belowSince = -1
	}

	m.gFast.Set(int64(m.fast * 1000))
	m.gSlow.Set(int64(m.slow * 1000))
	m.gState.Set(int64(m.state))
}

// record appends one transition to the bounded history (oldest dropped).
func (m *BurnMonitor) record(nowUs int64, from, to AlertState) {
	if len(m.history) == transitionHistory {
		copy(m.history, m.history[1:])
		m.history = m.history[:transitionHistory-1]
	}
	m.history = append(m.history, AlertTransition{AtUs: nowUs, From: from.String(), To: to.String()})
}

// State returns the current alert level (AlertOK on a nil receiver).
func (m *BurnMonitor) State() AlertState {
	if m == nil {
		return AlertOK
	}
	return m.state
}

// Transitions returns how many state changes the monitor has made.
func (m *BurnMonitor) Transitions() int {
	if m == nil {
		return 0
	}
	return m.transitions
}

// Status snapshots the monitor for dashboards and the /debug/slo endpoint.
func (m *BurnMonitor) Status() SLOStatus {
	if m == nil {
		return SLOStatus{State: AlertOK.String()}
	}
	return SLOStatus{
		Name:        m.Name,
		State:       m.state.String(),
		BurnFast:    m.fast,
		BurnSlow:    m.slow,
		Total:       m.total,
		Bad:         m.bad,
		Transitions: m.transitions,
		History:     append([]AlertTransition(nil), m.history...),
	}
}

// SLOStatus is one monitor's JSON-friendly snapshot.
type SLOStatus struct {
	Name        string  `json:"name"`
	State       string  `json:"state"`
	BurnFast    float64 `json:"burn_fast"`
	BurnSlow    float64 `json:"burn_slow"`
	Total       uint64  `json:"total"`
	Bad         uint64  `json:"bad"`
	Transitions int     `json:"transitions"`
	// History lists the monitor's recent state changes, oldest first.
	History []AlertTransition `json:"history,omitempty"`
}

// SLOBoard is a concurrency-safe holder for the latest published SLO
// statuses — the bridge between a fleet run (which owns the monitors) and
// the /debug/slo endpoint (which may be scraped from another goroutine).
type SLOBoard struct {
	mu       sync.RWMutex
	statuses []SLOStatus
}

// Publish replaces the board's statuses with a copy of ss.
func (b *SLOBoard) Publish(ss []SLOStatus) {
	if b == nil {
		return
	}
	cp := make([]SLOStatus, len(ss))
	copy(cp, ss)
	b.mu.Lock()
	b.statuses = cp
	b.mu.Unlock()
}

// Snapshot returns a copy of the board's statuses.
func (b *SLOBoard) Snapshot() []SLOStatus {
	if b == nil {
		return nil
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	cp := make([]SLOStatus, len(b.statuses))
	copy(cp, b.statuses)
	return cp
}

var defaultBoard = &SLOBoard{}

// DefaultBoard returns the process-wide SLO board the /debug/slo endpoint
// serves — fleets wired to the default telemetry hub publish here.
func DefaultBoard() *SLOBoard { return defaultBoard }
