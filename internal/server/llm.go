package server

import (
	"krisp/internal/kernels"
	"krisp/internal/llm"
	"krisp/internal/sim"
)

// LLMRole restricts which phases a replica serves. Mixed replicas run a
// sequence end to end; prefill/decode replicas implement disaggregated
// serving, where the cluster routes prompts to prefill replicas and hands
// the KV cache off to a decode replica for token generation.
type LLMRole uint8

const (
	// LLMRoleMixed serves both phases on one partition (per-phase CU sizes
	// still apply kernel by kernel — that is the kernel-wise right-sizing).
	LLMRoleMixed LLMRole = iota
	// LLMRolePrefill serves only prompt prefills; sequences complete after
	// their prefill pass and their KV pages hand off to a decode replica.
	LLMRolePrefill
	// LLMRoleDecode serves only token generation for sequences prefilled
	// elsewhere (submitted with prefilled=true).
	LLMRoleDecode
)

// String names the role for logs and result tables.
func (r LLMRole) String() string {
	switch r {
	case LLMRolePrefill:
		return "prefill"
	case LLMRoleDecode:
		return "decode"
	default:
		return "mixed"
	}
}

// LLMSpec turns a replica into an autoregressive serving engine with
// continuous batching: sequences join and leave the running batch at token
// boundaries instead of being served in fixed request batches.
type LLMSpec struct {
	// Model is the autoregressive workload.
	Model llm.Model
	// MaxSeqs bounds concurrently decoding sequences (the continuous batch
	// width). Zero means 8.
	MaxSeqs int
	// PrefillCUs / DecodeCUs are the per-phase partition sizes. When either
	// is set the replica gets a phase-aware right-sizer: prefill kernels
	// run at PrefillCUs, decode kernels at DecodeCUs, anything untagged at
	// the larger of the two. Zero for one phase means ReplicaSpec.CUs.
	PrefillCUs, DecodeCUs int
	// Role restricts the replica to one phase for disaggregated serving.
	Role LLMRole
	// KVBudget caps this replica's KV-cache bytes on its device. Zero means
	// only the device's own HBM capacity limits it.
	KVBudget float64
}

const (
	// llmStepOverheadUs is the CPU-side scheduling cost paid before each
	// token step (batch assembly, paging).
	llmStepOverheadUs sim.Duration = 20
	// llmRetryUs is the re-admission backoff when the replica is idle but
	// its queue head cannot reserve KV space.
	llmRetryUs sim.Duration = 50
)

// llmSeq is one resident sequence in the continuous batch.
type llmSeq struct {
	arrival, enq sim.Time
	// admitted is when the sequence joined the batch (its BatchStart stamp);
	// kernStart when its first step's kernels launched; firstTok when its
	// first token after the last (re)admission was produced.
	admitted  sim.Time
	kernStart sim.Time
	firstTok  sim.Time
	id        uint64
	// prompt/output are the request's lengths; done counts generated tokens;
	// ctx is the resident context (prompt + done) whose KV pages are held.
	prompt, output, done, ctx int
	// kv is the bytes this sequence has reserved on the device.
	kv float64
	// prefilled flips once the prompt pass has run (here or, for handoffs to
	// a decode replica, elsewhere).
	prefilled bool
	started   bool
	gotTok    bool
	cancelled bool
}

// llmEngine is the per-replica continuous-batching state. It reuses the
// replica's queue for waiting sequences (so Submit/Cancel/Drain semantics
// carry over) and owns the resident set.
type llmEngine struct {
	spec       LLMSpec
	active     []llmSeq
	kvInUse    float64
	kvPerToken float64
	// retryPending dedups the idle-but-blocked retry event.
	retryPending bool
	// Pre-bound step hooks; one set per replica, zero-alloc steady state.
	kickFn, stepFn, retryFn func()
	descBuf                 []kernels.Desc
}

// reset re-arms the engine for a (re)added replica.
func (e *llmEngine) reset(spec LLMSpec) {
	e.spec = spec
	e.kvPerToken = spec.Model.KVBytesPerToken()
	e.active = e.active[:0]
	e.kvInUse = 0
}

// SubmitSeq enqueues one autoregressive request: a prompt of the given
// length and a target output length. prefilled marks a disaggregated
// handoff whose prompt pass already ran on a prefill replica — the
// sequence joins decode directly, re-reserving its context's KV pages
// here. On a non-LLM replica it degrades to SubmitID. Admission follows
// the classic rules: refused once draining or killed.
func (r *Replica) SubmitSeq(arrival sim.Time, id uint64, prompt, output int, prefilled bool) bool {
	if r.llm == nil {
		return r.SubmitID(arrival, id)
	}
	if r.draining || r.killed {
		return false
	}
	if prompt < 1 {
		prompt = 1
	}
	if output < 1 {
		output = 1
	}
	enq := r.node.eng.Now()
	if enq < arrival {
		enq = arrival
	}
	r.queue = append(r.queue, pending{
		arrival: arrival, enq: enq, id: id,
		prompt: prompt, output: output, prefilled: prefilled,
	})
	r.llmMaybeStep()
	return true
}

// KVInUse reports the replica's reserved KV-cache bytes (0 for non-LLM).
func (r *Replica) KVInUse() float64 {
	if r.llm == nil {
		return 0
	}
	return r.llm.kvInUse
}

// llmKVCeiling is the hard bound on this replica's KV reservation: the
// smaller of its budget and the device capacity; <= 0 means unenforced.
func (r *Replica) llmKVCeiling() float64 {
	lim := r.node.gpus[r.spec.GPU].dev.KVCapacity()
	if b := r.llm.spec.KVBudget; b > 0 && (lim <= 0 || b < lim) {
		lim = b
	}
	return lim
}

// llmReserveKV reserves bytes against both the replica budget and the
// device ledger; all-or-nothing.
func (r *Replica) llmReserveKV(bytes float64) bool {
	e := r.llm
	if b := e.spec.KVBudget; b > 0 && e.kvInUse+bytes > b {
		return false
	}
	if !r.node.gpus[r.spec.GPU].dev.ReserveKV(bytes) {
		return false
	}
	e.kvInUse += bytes
	return true
}

// llmFreeKV returns bytes to both ledgers.
func (r *Replica) llmFreeKV(bytes float64) {
	if bytes <= 0 {
		return
	}
	e := r.llm
	e.kvInUse -= bytes
	if e.kvInUse < 0 {
		e.kvInUse = 0
	}
	r.node.gpus[r.spec.GPU].dev.FreeKV(bytes)
}

// llmAdmit moves queued sequences into the continuous batch, in FIFO
// order, until the batch is full or the queue head cannot reserve its
// context's KV pages (head-of-line blocking preserves ordering).
// Sequences whose full-context footprint can never fit are rejected with
// a cancelled completion.
func (r *Replica) llmAdmit(now sim.Time) {
	e := r.llm
	for len(r.queue) > 0 && len(e.active) < e.spec.MaxSeqs {
		q := r.queue[0]
		prompt, output := q.prompt, q.output
		if prompt < 1 {
			prompt = 1
		}
		if output < 1 {
			output = 1
		}
		// Full-lifetime footprint: a decode (or mixed) replica must
		// eventually hold prompt+output tokens; a prefill replica only the
		// prompt.
		need := float64(prompt+output) * e.kvPerToken
		if e.spec.Role == LLMRolePrefill {
			need = float64(prompt) * e.kvPerToken
		}
		lim := r.llmKVCeiling()
		tooBig := (lim > 0 && need > lim) ||
			(e.spec.Model.MaxContext > 0 && prompt+output > e.spec.Model.MaxContext)
		if tooBig {
			r.queue = r.queue[:copy(r.queue, r.queue[1:])]
			r.stats.Dropped++
			r.completions = append(r.completions, Completion{
				ID: q.id, Arrival: q.arrival, End: now, Cancelled: true,
				Enqueued: q.enq, BatchStart: now, KernelStart: now, KernelEnd: now,
				Prompt: prompt, Output: output,
			})
			continue
		}
		ctx := prompt + q.done
		if !r.llmReserveKV(float64(ctx) * e.kvPerToken) {
			break
		}
		r.queue = r.queue[:copy(r.queue, r.queue[1:])]
		e.active = append(e.active, llmSeq{
			arrival: q.arrival, enq: q.enq, admitted: now,
			id: q.id, prompt: prompt, output: output, done: q.done, ctx: ctx,
			kv: float64(ctx) * e.kvPerToken, prefilled: q.prefilled,
		})
	}
}

// llmMaybeStep is the continuous-batching pump: admit joiners at this
// token boundary and launch the next step. When the replica is idle but
// KV-blocked, a single retry event keeps it live.
func (r *Replica) llmMaybeStep() {
	if r.busy || r.killed {
		return
	}
	e := r.llm
	now := r.node.eng.Now()
	r.llmAdmit(now)
	if len(e.active) == 0 {
		if len(r.queue) > 0 && !e.retryPending {
			e.retryPending = true
			r.node.eng.After(llmRetryUs, e.retryFn)
		}
		return
	}
	r.busy = true
	r.node.eng.After(llmStepOverheadUs, e.kickFn)
}

// llmRetry re-attempts admission after a KV-blocked idle period.
func (r *Replica) llmRetry() {
	e := r.llm
	if e == nil {
		return
	}
	e.retryPending = false
	if r.killed {
		return
	}
	r.llmMaybeStep()
}

// llmKick fires after the step's CPU overhead: build the step's kernel
// list — a prefill pass per unprefilled joiner plus one batched decode
// step over every prefilled sequence — jitter it, and run it. The buffer
// is reused; steady state allocates nothing.
func (r *Replica) llmKick() {
	e := r.llm
	now := r.node.eng.Now()
	buf := e.descBuf[:0]
	decodeSeqs, ctxTotal := 0, 0
	for i := range e.active {
		s := &e.active[i]
		if !s.started {
			s.started = true
			s.kernStart = now
		}
		if s.prefilled {
			decodeSeqs++
			ctxTotal += s.ctx
		} else {
			buf = e.spec.Model.AppendPrefill(buf, s.ctx)
		}
	}
	if decodeSeqs > 0 {
		buf = e.spec.Model.AppendDecodeStep(buf, decodeSeqs, ctxTotal)
	}
	if j := r.node.cfg.Jitter; j != 0 {
		for i := range buf {
			f := 1 + j*(2*r.rng.Float64()-1)
			buf[i].Work.WGTime *= sim.Duration(f)
		}
	}
	e.descBuf = buf
	if len(buf) == 0 {
		// Kill emptied the batch while the kick was pending.
		r.busy = false
		return
	}
	r.rt.RunSequence(buf, e.stepFn)
}

// llmStepDone is the token boundary: commit this step's progress, retire
// finished and cancelled sequences, grow each survivor's KV cache by one
// token — preempting the youngest residents when the budget is exhausted
// — and pump the next step.
func (r *Replica) llmStepDone() {
	r.busy = false
	if r.killed {
		return
	}
	e := r.llm
	now := r.node.eng.Now()
	// Sequences at index >= end are evicted at this boundary before their
	// own bookkeeping runs: their step output is discarded and they resume
	// from their last committed token.
	end := len(e.active)
	w := 0
	for i := 0; i < end; i++ {
		s := e.active[i]
		finished, preempted := false, false
		if !s.prefilled {
			// The step ran this sequence's prefill (or re-prefill after a
			// preemption). A prefill-only replica is done here: its KV pages
			// hand off to a decode replica, so the local hold is released.
			s.prefilled = true
			finished = s.cancelled || e.spec.Role == LLMRolePrefill
		} else {
			next := s.done + 1
			if s.cancelled || next >= s.output {
				// Final (or revoked) token: no KV growth needed.
				s.done = next
				s.ctx++
				if !s.gotTok {
					s.gotTok = true
					s.firstTok = now
				}
				finished = true
			} else {
				ok := true
				for !r.llmReserveKV(e.kvPerToken) {
					if end-1 > i {
						end--
						r.llmPreempt(e.active[end], now)
					} else {
						ok = false
						break
					}
				}
				if ok {
					s.kv += e.kvPerToken
					s.done = next
					s.ctx++
					if !s.gotTok {
						s.gotTok = true
						s.firstTok = now
					}
				} else {
					// Youngest resident is this sequence itself: the token is
					// discarded and the sequence resumes from done.
					r.llmPreempt(s, now)
					preempted = true
				}
			}
		}
		switch {
		case finished:
			r.llmFreeKV(s.kv)
			r.llmComplete(s, now)
		case preempted:
			// Already requeued by llmPreempt.
		default:
			e.active[w] = s
			w++
		}
	}
	e.active = e.active[:w]
	r.stats.CompletedBatches++
	r.llmMaybeStep()
}

// llmPreempt evicts a resident sequence: its KV pages are freed and it
// re-enters the queue front (victims are evicted youngest-first, and each
// push-front lands in front of the previous one, so preempted sequences
// resume oldest-first). A cancelled victim completes instead of resuming.
// Resumption re-prefills the full committed context before decoding
// continues.
func (r *Replica) llmPreempt(s llmSeq, now sim.Time) {
	r.llmFreeKV(s.kv)
	if s.cancelled {
		r.llmComplete(s, now)
		return
	}
	r.stats.Preempted++
	r.queue = append(r.queue, pending{})
	copy(r.queue[1:], r.queue)
	r.queue[0] = pending{
		arrival: s.arrival, enq: s.enq, id: s.id,
		prompt: s.prompt, output: s.output, done: s.done,
	}
}

// llmComplete emits the sequence's completion at a token boundary.
// KernelEnd and End coincide (the boundary is the abort and completion
// granularity), so the post-process stage telescopes to zero.
func (r *Replica) llmComplete(s llmSeq, now sim.Time) {
	r.completions = append(r.completions, Completion{
		ID: s.id, Arrival: s.arrival, End: now, Cancelled: s.cancelled,
		Enqueued: s.enq, BatchStart: s.admitted,
		KernelStart: s.kernStart, KernelEnd: now,
		FirstToken: s.firstTok, Tokens: s.done,
		Prompt: s.prompt, Output: s.output,
	})
	if !s.cancelled {
		r.stats.CompletedRequests++
	}
}
