package server

import (
	"math/rand"
	"strings"
	"testing"

	"krisp/internal/llm"
	"krisp/internal/sim"
)

// mailboxNode is one node of the mailbox test: a classic replica, a mixed
// LLM replica and a decode-role LLM replica, all on one GPU.
type mailboxNode struct {
	n    *Node
	reps []*Replica
}

func newMailboxNode(t *testing.T) *mailboxNode {
	n := NewNode(NodeConfig{GPUs: 1, Seed: 3})
	return &mailboxNode{n: n, reps: []*Replica{
		n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 16}),
		n.AddReplica(ReplicaSpec{CUs: 24, LLM: &LLMSpec{Model: llm.Small(), MaxSeqs: 4}}),
		n.AddReplica(ReplicaSpec{CUs: 16, LLM: &LLMSpec{
			Model: llm.Small(), MaxSeqs: 4, Role: LLMRoleDecode, PrefillCUs: 24, DecodeCUs: 16,
		}}),
	}}
}

func (mb *mailboxNode) completions() []Completion {
	var out []Completion
	for _, r := range mb.reps {
		out = r.TakeCompletions(out)
	}
	return out
}

// mailCopy is one request copy as the fleet router sends it.
type mailCopy struct {
	deliver, arrival sim.Time
	rep              int
	id               uint64
	prompt, output   int
	prefilled        bool
}

// TestNodePostMatchesScheduledClosures checks the node mailbox against the
// transport it replaces: delivering each copy with its own Node.Schedule
// closure. Each horizon window posts copies out of time order, several
// sharing a delivery time, some exactly at the timestamp of an engine
// event already pending (a batch or token step in flight, or a caller's
// earlier Schedule), with arrivals at or before delivery. Both nodes must
// agree on every pending event time and end with identical completions.
func TestNodePostMatchesScheduledClosures(t *testing.T) {
	mail, sched := newMailboxNode(t), newMailboxNode(t)
	rng := rand.New(rand.NewSource(11))
	var horizon sim.Time
	id := uint64(0)
	for window := 0; window < 40; window++ {
		next := horizon + sim.Time(500+rng.Intn(3000))
		tm, okm := mail.n.NextEventTime()
		ts, oks := sched.n.NextEventTime()
		if tm != ts || okm != oks {
			t.Fatalf("window %d: next event %v/%v (mailbox) vs %v/%v (closures)", window, tm, okm, ts, oks)
		}
		// Delivery times inside (horizon, next]: a few random ones, the
		// horizon's far edge, and the pending engine event when it falls
		// inside the window.
		times := []sim.Time{next, horizon + 1 + sim.Time(rng.Intn(int(next-horizon)))}
		if okm && tm > horizon && tm <= next {
			times = append(times, tm, tm)
			// A caller's closure already pending at the same timestamp: it
			// ranks ahead of the mail on both nodes.
			for _, mb := range []*mailboxNode{mail, sched} {
				r, at := mb.reps[0], tm
				mb.n.Schedule(at, func() { r.SubmitID(at, 0) })
			}
		}
		var copies []mailCopy
		for k := rng.Intn(7); k > 0; k-- {
			c := mailCopy{deliver: times[rng.Intn(len(times))], rep: rng.Intn(3)}
			c.arrival = c.deliver - sim.Time(rng.Intn(800)) // queued re-sends arrive earlier
			if rng.Intn(3) > 0 {
				id++
				c.id = id
			}
			if c.rep > 0 {
				c.prompt, c.output = 1+rng.Intn(96), 1+rng.Intn(12)
				c.prefilled = c.rep == 2
			}
			copies = append(copies, c)
		}
		for _, c := range copies {
			mail.n.Post(c.deliver, c.arrival, mail.reps[c.rep], c.id, c.prompt, c.output, c.prefilled)
			r, c := sched.reps[c.rep], c
			sched.n.Schedule(c.deliver, func() { r.SubmitSeq(c.arrival, c.id, c.prompt, c.output, c.prefilled) })
		}
		mail.n.AdvanceTo(next)
		sched.n.RunUntil(next)
		horizon = next
	}
	mail.n.AdvanceTo(horizon + sim.Second)
	sched.n.RunUntil(horizon + sim.Second)

	got, want := mail.completions(), sched.completions()
	if id == 0 || len(want) < int(id) {
		t.Fatalf("only %d completions for %d tracked copies: the scenario served too little", len(want), id)
	}
	if len(got) != len(want) {
		t.Fatalf("mailbox completions = %d, closures = %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d: mailbox %+v, closures %+v", i, got[i], want[i])
		}
	}
}

// TestNodeAdvanceToPanicsOnMailPastHorizon: a horizon that would leave
// posted mail undelivered is a scheduler bug, not something to carry over.
func TestNodeAdvanceToPanicsOnMailPastHorizon(t *testing.T) {
	n := testNode(t, 1)
	rep := n.AddReplica(ReplicaSpec{Model: squeezenet(t), Batch: 4, CUs: 8})
	n.Post(3000, 3000, rep, 0, 0, 0, false)
	n.Post(5000, 4000, rep, 1, 0, 0, false)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "undelivered") {
			t.Fatalf("AdvanceTo(4000) with mail at 5000: recovered %q, want an undelivered-mail panic", msg)
		}
	}()
	n.AdvanceTo(4000)
}
