package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
)

// maxCtrSeries bounds the per-event counter series of a CounterEvent — 8
// covers one value per shader engine on the largest supported topology.
const maxCtrSeries = 8

// Event is one recorded trace event in virtual time. Ts and Dur are virtual
// microseconds — the same unit Chrome trace-event JSON uses, so spans load
// into Perfetto with no conversion. Pid conventionally identifies the
// device (GPU index) and Tid the HSA queue.
type Event struct {
	Ph   byte // 'X' complete span, 'i' instant, 'C' counter
	Cat  string
	Name string
	Pid  int
	Tid  int
	Ts   float64
	Dur  float64
	// One optional numeric argument for spans and instants.
	ArgKey string
	ArgVal float64
	// Counter-event series (Ph == 'C').
	CtrKeys [maxCtrSeries]string
	CtrVals [maxCtrSeries]float64
	NCtr    int
}

// traceChunk is the record count of one storage chunk (a power of two).
// Chunks are never reallocated once full, so a long trace grows one chunk
// at a time instead of copying every recorded event on each slice growth.
const traceChunk = 1 << 14

// chunked is an append-only sequence stored in fixed-size chunks.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

func (c *chunked[T]) push(v T) {
	k := len(c.chunks)
	if k == 0 || len(c.chunks[k-1]) == traceChunk {
		var next []T
		if k > 0 { // the first chunk grows by append, so small traces stay small
			next = make([]T, 0, traceChunk)
		}
		c.chunks = append(c.chunks, next)
		k++
	}
	c.chunks[k-1] = append(c.chunks[k-1], v)
	c.n++
}

func (c *chunked[T]) at(i int) *T { return &c.chunks[i/traceChunk][i%traceChunk] }

// record is the stored form of an Event. A counter event keeps its values
// in Tracer.ctrVals and its keys as an interned set in Tracer.ctrKeys, so a
// record is about a third of an Event's size.
type record struct {
	cat, name, argKey string
	pid, tid          int
	ts, dur, argVal   float64
	ctrOff            int   // 'C': index of the first value in Tracer.ctrVals
	ctrSet            int32 // 'C': index into Tracer.ctrKeys
	nCtr              uint8
	ph                byte
}

// Tracer records spans, instants, and counter time-series against the
// virtual clock. It is concurrency-safe (parallel grid cells may share
// one), and every method is nil-receiver safe so call sites gate tracing
// with a plain field copy instead of branching.
//
// Unlike the metrics registry, the tracer retains one record per event, so
// it is an opt-in tool for bounded runs (quick experiments, single
// scenarios), not an always-on production path.
type Tracer struct {
	mu      sync.Mutex
	records chunked[record]
	ctrVals chunked[float64]
	// Distinct counter key sets, in first-use order; devices of one
	// topology all share a set.
	ctrKeys [][]string
	// process/thread display names for the Perfetto UI, keyed by pid and
	// (pid, tid).
	procNames   map[int]string
	threadNames map[[2]int]string
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{
		procNames:   make(map[int]string),
		threadNames: make(map[[2]int]string),
	}
}

func (t *Tracer) add(r record) {
	t.mu.Lock()
	t.records.push(r)
	t.mu.Unlock()
}

// Span records a complete span [start, end] on (pid, tid).
func (t *Tracer) Span(cat, name string, pid, tid int, start, end float64) {
	if t == nil {
		return
	}
	t.add(record{ph: 'X', cat: cat, name: name, pid: pid, tid: tid, ts: start, dur: end - start})
}

// SpanArg records a complete span carrying one numeric argument.
func (t *Tracer) SpanArg(cat, name string, pid, tid int, start, end float64, argKey string, argVal float64) {
	if t == nil {
		return
	}
	t.add(record{ph: 'X', cat: cat, name: name, pid: pid, tid: tid, ts: start, dur: end - start,
		argKey: argKey, argVal: argVal})
}

// Instant records a zero-duration marker with one numeric argument
// (pass an empty argKey to omit it).
func (t *Tracer) Instant(cat, name string, pid, tid int, ts float64, argKey string, argVal float64) {
	if t == nil {
		return
	}
	t.add(record{ph: 'i', cat: cat, name: name, pid: pid, tid: tid, ts: ts, argKey: argKey, argVal: argVal})
}

// CounterEvent records a named multi-series counter sample at ts — Perfetto
// renders these as stacked time-series (the per-SE occupancy timeline). At
// most maxCtrSeries series are kept; keys and vals must have equal length.
func (t *Tracer) CounterEvent(name string, pid int, ts float64, keys []string, vals []float64) {
	if t == nil {
		return
	}
	n := len(keys)
	if len(vals) < n {
		n = len(vals)
	}
	if n > maxCtrSeries {
		n = maxCtrSeries
	}
	t.mu.Lock()
	r := record{ph: 'C', name: name, pid: pid, ts: ts, nCtr: uint8(n),
		ctrOff: t.ctrVals.n, ctrSet: t.internKeys(keys[:n])}
	for _, v := range vals[:n] {
		t.ctrVals.push(v)
	}
	t.records.push(r)
	t.mu.Unlock()
}

// internKeys returns the index of a stored key set equal to keys, storing a
// copy first if there is none. t.mu must be held.
func (t *Tracer) internKeys(keys []string) int32 {
	for i := len(t.ctrKeys) - 1; i >= 0; i-- {
		if slices.Equal(t.ctrKeys[i], keys) {
			return int32(i)
		}
	}
	t.ctrKeys = append(t.ctrKeys, slices.Clone(keys))
	return int32(len(t.ctrKeys) - 1)
}

// event expands a record into its public form. t.mu must be held.
func (t *Tracer) event(r *record) Event {
	e := Event{Ph: r.ph, Cat: r.cat, Name: r.name, Pid: r.pid, Tid: r.tid, Ts: r.ts, Dur: r.dur,
		ArgKey: r.argKey, ArgVal: r.argVal, NCtr: int(r.nCtr)}
	if r.ph == 'C' {
		copy(e.CtrKeys[:], t.ctrKeys[r.ctrSet])
		for j := 0; j < e.NCtr; j++ {
			e.CtrVals[j] = *t.ctrVals.at(r.ctrOff + j)
		}
	}
	return e
}

// NameProcess sets the display name Perfetto shows for pid.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procNames[pid] = name
	t.mu.Unlock()
}

// NameThread sets the display name Perfetto shows for (pid, tid).
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threadNames[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.records.n
}

// CountCat returns how many events carry the given category.
func (t *Tracer) CountCat(cat string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.records.chunks {
		for i := range c {
			if c[i].cat == cat {
				n++
			}
		}
	}
	return n
}

// Events returns a copy of the recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.records.n)
	for _, c := range t.records.chunks {
		for i := range c {
			out = append(out, t.event(&c[i]))
		}
	}
	return out
}

// jsonEvent is the Chrome trace-event wire shape.
type jsonEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the recorded events as Chrome trace-event JSON
// (the {"traceEvents": [...]} object form), loadable in Perfetto and
// chrome://tracing. Virtual microseconds map directly onto the format's ts
// unit. Process and thread metadata events are emitted first so the UI
// shows device and queue names.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(je jsonEvent) error {
		b, err := json.Marshal(je)
		if err != nil {
			return err
		}
		if !first {
			if _, err := w.Write([]byte{',', '\n'}); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}

	// Metadata first, in deterministic order.
	for _, pid := range sortedIntKeys(t.procNames) {
		if err := emit(jsonEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": t.procNames[pid]}}); err != nil {
			return err
		}
	}
	for _, k := range sortedPairKeys(t.threadNames) {
		if err := emit(jsonEvent{Name: "thread_name", Ph: "M", Pid: k[0], Tid: k[1],
			Args: map[string]any{"name": t.threadNames[k]}}); err != nil {
			return err
		}
	}

	for _, c := range t.records.chunks {
		for i := range c {
			r := &c[i]
			je := jsonEvent{Name: r.name, Cat: r.cat, Ph: string(r.ph), Ts: r.ts, Pid: r.pid, Tid: r.tid}
			switch r.ph {
			case 'X':
				d := r.dur
				je.Dur = &d
				if r.argKey != "" {
					je.Args = map[string]any{r.argKey: r.argVal}
				}
			case 'i':
				je.S = "t" // thread-scoped instant
				if r.argKey != "" {
					je.Args = map[string]any{r.argKey: r.argVal}
				}
			case 'C':
				keys := t.ctrKeys[r.ctrSet]
				args := make(map[string]any, r.nCtr)
				for j := range keys {
					args[keys[j]] = *t.ctrVals.at(r.ctrOff + j)
				}
				je.Args = args
			default:
				return fmt.Errorf("telemetry: unknown event phase %q", r.ph)
			}
			if err := emit(je); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

func sortedIntKeys(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; metadata sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sortedPairKeys(m map[[2]int]string) [][2]int {
	out := make([][2]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	less := func(a, b [2]int) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
