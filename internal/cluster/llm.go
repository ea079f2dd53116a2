package cluster

import (
	"fmt"

	"krisp/internal/cluster/workload"
	"krisp/internal/llm"
	"krisp/internal/sched"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// LLMWorkload upgrades a Workload to autoregressive serving: requests are
// sequences with drawn prompt/output lengths, replicas run continuous
// batching with KV-cache accounting, and the autoscaler sizes the fleet
// from the model's per-phase right-sizing profile.
type LLMWorkload struct {
	// Model is the autoregressive model served.
	Model llm.Model
	// MaxSeqs is the continuous-batch width per replica. Zero means 8.
	MaxSeqs int
	// Lengths draws per-request prompt/output token counts from the
	// workload's arrival RNG.
	Lengths workload.LengthDist
	// PerPhase gives replicas separate prefill and decode partition sizes
	// (the profiled knees) instead of one shared size — the kernel-wise
	// right-sizing under test.
	PerPhase bool
	// Disaggregate splits the fleet into prefill-only and decode-only
	// replicas: prompts route to prefill replicas, finished prefills hand
	// their KV cache off to a decode replica (billed as a migration-class
	// transfer), and tokens stream there.
	Disaggregate bool
	// KVBudget caps each replica's KV-cache bytes. Zero means the device's
	// HBM capacity is the only limit.
	KVBudget float64
}

// A disaggregated KV handoff costs a fixed latency plus the prompt's KV
// bytes over a 25 GB/s prefill-to-decode interconnect.
const (
	handoffLatencyUs  sim.Duration = 100
	handoffBytesPerUs              = 25e3
)

// normalizeLLM applies the workload's defaults.
func normalizeLLM(w LLMWorkload) LLMWorkload {
	if w.MaxSeqs < 1 {
		w.MaxSeqs = 8
	}
	return w
}

// llmLen is one request's drawn lengths, buffered alongside its arrival.
type llmLen struct {
	prompt, output int
}

// handoff is one sequence whose prefill completed on a prefill replica and
// whose KV cache is in flight to a decode replica: it becomes routable to
// decode once the transfer finishes at due.
type handoff struct {
	due            sim.Time
	arrival        sim.Time
	id             uint64
	prompt, output int
	tenant         int
}

// llmModelState is the router-side per-model LLM bookkeeping.
type llmModelState struct {
	spec                   LLMWorkload
	sizing                 sched.LLMSizing
	meanPrompt, meanOutput int
	kvPerToken             float64

	// handoffs is the disaggregated transfer queue, FIFO in completion
	// order; handoffCount/handoffUs are the cumulative migration bill.
	handoffs     []handoff
	handoffCount int
	handoffUs    sim.Duration
}

// queueHandoff books one finished prefill's KV transfer.
func (lm *llmModelState) queueHandoff(c server.Completion, tenant int) {
	bytes := float64(c.Prompt) * lm.kvPerToken
	dur := handoffLatencyUs + sim.Duration(bytes/handoffBytesPerUs)
	lm.handoffCount++
	lm.handoffUs += dur
	lm.handoffs = append(lm.handoffs, handoff{
		due: c.End + dur, arrival: c.Arrival, id: c.ID,
		prompt: c.Prompt, output: c.Output, tenant: tenant,
	})
}

// pickDecode selects the decode replica with the fewest outstanding
// sequences (first wins ties — deterministic in replica order), or nil
// when none has admission headroom.
func (r *router) pickDecode(m *modelState, now sim.Time) *replicaHandle {
	var best *replicaHandle
	for _, h := range m.replicas {
		if h.role != server.LLMRoleDecode || !h.routable(now) || h.outstanding >= r.outstandingCap {
			continue
		}
		if best == nil || h.outstanding < best.outstanding {
			best = h
		}
	}
	return best
}

// sendHandoff delivers one transferred sequence to a decode replica. The
// request keeps its original arrival (its latency spans prefill, transfer,
// and decode) and its identity (the journey retires on the decode
// completion); it joins decode with prefilled=true, re-reserving its
// context's KV pages there.
func (r *router) sendHandoff(m *modelState, h *replicaHandle, ho handoff, now sim.Time) {
	h.outstanding++
	r.seq++
	if r.log != nil {
		fmt.Fprintf(r.log, "%d %s~>%d\n", r.seq, m.name, h.id)
	}
	r.obs.traceRoute(now, h.id)
	r.deliver(h, ho.due, now, ho.arrival, ho.id, ho.prompt, ho.output, true)
}

// releaseHandoffs routes every handoff whose KV transfer lands inside this
// tick to a decode replica. Transfers still in flight — or blocked because
// every decode replica is at its admission cap — stay queued for the next
// tick.
func (f *Fleet) releaseHandoffs(from, to sim.Time) {
	for _, m := range f.router.models {
		lm := m.llm
		if lm == nil || len(lm.handoffs) == 0 {
			continue
		}
		keep := lm.handoffs[:0]
		for _, ho := range lm.handoffs {
			if ho.due >= to {
				keep = append(keep, ho)
				continue
			}
			h := f.router.pickDecode(m, from)
			if h == nil {
				keep = append(keep, ho)
				continue
			}
			f.router.sendHandoff(m, h, ho, from)
		}
		lm.handoffs = keep
	}
}
