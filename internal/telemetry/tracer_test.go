package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// chromeTrace mirrors the document WriteChromeTrace emits, for decoding in
// tests the same way Perfetto would.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeTrace(t *testing.T, tr *Tracer) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(0, "gpu0")
	tr.NameThread(0, 3, "hsa-queue-3")
	tr.Span("hsa", "kernel:gemm", 0, 3, 10, 42.5)
	tr.SpanArg("hsa", "queue_wait", 0, 3, 2, 10, "depth", 4)
	tr.Instant("core", "widen", 0, 3, 50, "level", 1)
	tr.CounterEvent("se_occupancy", 0, 42.5, []string{"se0", "se1"}, []float64{7, 5})

	doc := decodeTrace(t, tr)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 metadata + 4 recorded events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("%d events, want 6", len(doc.TraceEvents))
	}
	m0 := doc.TraceEvents[0]
	if m0.Ph != "M" || m0.Name != "process_name" || m0.Args["name"] != "gpu0" {
		t.Errorf("first event is not process metadata: %+v", m0)
	}
	m1 := doc.TraceEvents[1]
	if m1.Ph != "M" || m1.Name != "thread_name" || m1.Tid != 3 {
		t.Errorf("second event is not thread metadata: %+v", m1)
	}
	span := doc.TraceEvents[2]
	if span.Ph != "X" || span.Name != "kernel:gemm" || span.Ts != 10 || span.Dur == nil || *span.Dur != 32.5 {
		t.Errorf("span event wrong: %+v", span)
	}
	arg := doc.TraceEvents[3]
	if arg.Args["depth"] != 4.0 {
		t.Errorf("span arg not carried: %+v", arg)
	}
	inst := doc.TraceEvents[4]
	if inst.Ph != "i" || inst.S != "t" || inst.Args["level"] != 1.0 {
		t.Errorf("instant event wrong: %+v", inst)
	}
	ctr := doc.TraceEvents[5]
	if ctr.Ph != "C" || ctr.Args["se0"] != 7.0 || ctr.Args["se1"] != 5.0 {
		t.Errorf("counter event wrong: %+v", ctr)
	}
}

func TestWriteChromeTraceEmptyAndNil(t *testing.T) {
	for name, tr := range map[string]*Tracer{"nil": nil, "empty": NewTracer()} {
		doc := decodeTrace(t, tr)
		if len(doc.TraceEvents) != 0 {
			t.Errorf("%s tracer emitted %d events", name, len(doc.TraceEvents))
		}
	}
}

func TestTracerCounts(t *testing.T) {
	tr := NewTracer()
	tr.Span("hsa", "a", 0, 0, 0, 1)
	tr.Span("hsa", "b", 0, 0, 1, 2)
	tr.Span("core", "c", 0, 0, 2, 3)
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
	if tr.CountCat("hsa") != 2 || tr.CountCat("core") != 1 || tr.CountCat("x") != 0 {
		t.Errorf("CountCat wrong: hsa=%d core=%d", tr.CountCat("hsa"), tr.CountCat("core"))
	}
	if got := len(tr.Events()); got != 3 {
		t.Errorf("Events len = %d", got)
	}
}

func TestCounterEventSeriesClamped(t *testing.T) {
	tr := NewTracer()
	keys := make([]string, maxCtrSeries+4)
	vals := make([]float64, maxCtrSeries+4)
	for i := range keys {
		keys[i] = string(rune('a' + i))
		vals[i] = float64(i)
	}
	tr.CounterEvent("big", 0, 0, keys, vals)
	ev := tr.Events()[0]
	if ev.NCtr != maxCtrSeries {
		t.Errorf("NCtr = %d, want %d", ev.NCtr, maxCtrSeries)
	}
}

// TestTracerKeepsOrderAcrossChunks records past several storage chunks,
// interleaving spans with counter events of two key sets, and checks every
// event reads back in order with its own values.
func TestTracerKeepsOrderAcrossChunks(t *testing.T) {
	tr := NewTracer()
	keysA, keysB := []string{"se0", "se1"}, []string{"x", "y", "z"}
	n := 2*traceChunk + 7
	for i := 0; i < n; i++ {
		f := float64(i)
		switch i % 3 {
		case 0:
			tr.SpanArg("hsa", "s", i, i+1, f, f+2, "k", f)
		case 1:
			tr.CounterEvent("a", i, f, keysA, []float64{f, -f})
		default:
			tr.CounterEvent("b", i, f, keysB, []float64{f, f + 1, f + 2})
		}
	}
	keysA[0] = "mutated" // the tracer keeps its own copy of each key set
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i, e := range tr.Events() {
		f := float64(i)
		var ok bool
		switch i % 3 {
		case 0:
			ok = e.Ph == 'X' && e.Pid == i && e.Tid == i+1 && e.Ts == f && e.Dur == 2 && e.ArgVal == f
		case 1:
			ok = e.Ph == 'C' && e.Name == "a" && e.NCtr == 2 && e.CtrKeys[0] == "se0" &&
				e.CtrVals[0] == f && e.CtrVals[1] == -f
		default:
			ok = e.Ph == 'C' && e.Name == "b" && e.NCtr == 3 && e.CtrKeys[2] == "z" &&
				e.CtrVals[0] == f && e.CtrVals[2] == f+2
		}
		if !ok {
			t.Fatalf("event %d read back wrong: %+v", i, e)
		}
	}
}
