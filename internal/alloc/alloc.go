// Package alloc implements KRISP's partition resource allocation: given a
// requested partition size (number of CUs), the device topology, and the
// per-CU kernel counters from the Resource Monitor, it generates the kernel
// resource mask the packet processor tags onto the dispatch.
//
// Three CU-distribution policies are provided (paper §IV-C, Fig. 7):
//
//   - Distributed: spread the allocation equally across all SEs (the
//     default hardware behaviour). Suffers when the allocation is smaller
//     than one CU per SE-share — dips at 15, 11, 7 CUs on the MI50.
//   - Packed: fill one SE completely before spilling into the next.
//     Suffers whenever an SE is left nearly empty — spikes at 16, 31, 46.
//   - Conserved: use the minimum number of SEs that satisfies the request
//     and spread evenly across them. Avoids both pitfalls; KRISP adopts it.
//
// Allocator.Generate is a faithful implementation of the paper's
// Algorithm 1, including the overlap limit: CUs already running kernels
// count as "overlapped", and once the limit is exceeded further busy CUs
// are skipped (consuming allocation budget without setting the bit, exactly
// as the pseudocode does), so a constrained allocation can return fewer CUs
// than requested — this is the KRISP-I behaviour of granting only what is
// isolatable.
//
// Algorithm 1 runs on every kernel launch, so the allocator is built for
// the dispatch fast path: an Allocator owns fixed topology-sized scratch
// buffers and sorts them with insertion sort, allocating nothing per call,
// and a MaskCache in front of it memoizes the dominant request shapes
// (idle-device allocations and repeated occupancy states keyed by the
// device's occupancy generation counter).
package alloc

import (
	"krisp/internal/gpu"
)

// Policy selects how CUs are distributed across shader engines.
type Policy int

const (
	// Conserved uses the fewest SEs that satisfy the request, evenly.
	Conserved Policy = iota
	// Distributed spreads the request across all SEs evenly.
	Distributed
	// Packed fills SEs one at a time.
	Packed
)

func (p Policy) String() string {
	switch p {
	case Conserved:
		return "conserved"
	case Distributed:
		return "distributed"
	case Packed:
		return "packed"
	default:
		return "unknown"
	}
}

// NoOverlapLimit disables the overlap limit: every CU may be shared.
// Passing it as overlapLimit yields KRISP-O behaviour.
const NoOverlapLimit = int(^uint(0) >> 1)

// Request describes one allocation.
type Request struct {
	// NumCUs is the partition size from kernel-wise right-sizing.
	NumCUs int
	// OverlapLimit is the maximum number of allocated CUs that may already
	// have kernels assigned. 0 = full isolation (KRISP-I),
	// NoOverlapLimit = unrestricted (KRISP-O).
	OverlapLimit int
	// Policy is the SE distribution policy. The zero value is Conserved,
	// the policy KRISP adopts.
	Policy Policy
	// MinGrant is a progress floor: if the overlap limit leaves the
	// allocation below min(NumCUs, MinGrant), the shortfall is filled with
	// overlapped least-loaded CUs regardless of the limit. The command
	// processor passes the kernel's fair share (totalCUs / active kernels)
	// here so a starved stream degrades to time-shared fairness instead of
	// crawling on whatever scraps are free.
	MinGrant int
}

// Allocator runs Algorithm 1 over fixed scratch buffers so the per-launch
// mask generation allocates nothing. It is not safe for concurrent use;
// each command processor (simulation goroutine) owns its own.
type Allocator struct {
	topo gpu.Topology

	// seLoads[se] is the summed kernel counter of SE se; seOrder holds SE
	// ids sorted least-loaded first (insertion sort keeps ties in SE-id
	// order, matching the stable sort of the original implementation).
	seLoads []int
	seOrder []int
	// cuOrder holds the current SE's CU indices sorted least-loaded first.
	cuOrder []int
	// quotas is the per-selected-SE CU quota buffer.
	quotas []int
	// zeros stands in for nil counters (idle device); never written.
	zeros []int
	// ext is the biased counter copy used by the progress-floor extension.
	ext []int
}

// NewAllocator builds an allocator for one device topology.
func NewAllocator(topo gpu.Topology) *Allocator {
	total := topo.TotalCUs()
	return &Allocator{
		topo:    topo,
		seLoads: make([]int, topo.NumSEs),
		seOrder: make([]int, topo.NumSEs),
		cuOrder: make([]int, topo.CUsPerSE),
		quotas:  make([]int, topo.NumSEs),
		zeros:   make([]int, total),
		ext:     make([]int, total),
	}
}

// Generate runs Algorithm 1 and returns the kernel resource mask.
// counters must have one entry per physical CU (the Resource Monitor
// state); a nil counters slice means an idle device. counters is never
// mutated.
//
// The mask is never empty: if the overlap limit filtered out every
// candidate (all CUs busy under KRISP-I), the single least-loaded CU is
// granted so the kernel can make progress. The paper's evaluation implies
// the same floor ("we allocate only what is available").
func (a *Allocator) Generate(counters []int, req Request) gpu.CUMask {
	if counters == nil {
		counters = a.zeros
	}
	return a.generate(counters, req, true)
}

// generate is one Algorithm 1 pass. extend gates the progress-floor
// extension: the extension pass itself runs with NoOverlapLimit and no
// MinGrant, which can never come up short again, so recursion is bounded
// at depth one and replaced by a plain second pass over the same scratch.
func (a *Allocator) generate(counters []int, req Request, extend bool) gpu.CUMask {
	topo := a.topo
	total := topo.TotalCUs()
	numCUs := req.NumCUs
	if numCUs < 1 {
		numCUs = 1
	}
	if numCUs > total {
		numCUs = total
	}

	// Isolation-seeking requests (a finite overlap limit) exceed the fair
	// share only when the full request fits in currently free CUs:
	// "allocate only what is available". Without the cap, early
	// requesters hoard CUs and force later ones into saturating overlap;
	// a partial surplus (free CUs above fair but below the request) is
	// left for other streams, so concurrent streams converge to an even
	// split while a lone stream still gets its full request.
	if req.MinGrant > 0 && req.OverlapLimit < total &&
		numCUs > req.MinGrant && numCUs > FreeCUs(counters) {
		numCUs = req.MinGrant
	}

	quotas := a.seQuotas(numCUs, req.Policy)

	// Select SEs ordered by total assigned kernels, least-loaded first
	// (Algorithm 1 lines 4-8). Ties break on SE id for determinism.
	order := a.seOrder[:topo.NumSEs]
	for se := 0; se < topo.NumSEs; se++ {
		sum := 0
		for c := 0; c < topo.CUsPerSE; c++ {
			sum += counters[topo.CUIndex(se, c)]
		}
		a.seLoads[se] = sum
		order[se] = se
	}
	insertionSortByKey(order, a.seLoads)

	var mask gpu.CUMask
	allocated := 0
	overlapped := 0
	for i := 0; i < len(quotas) && allocated < numCUs; i++ {
		se := order[i]
		// Within the SE, order CUs by assigned-kernel count (line 12).
		cus := a.cuOrder[:topo.CUsPerSE]
		for c := 0; c < topo.CUsPerSE; c++ {
			cus[c] = topo.CUIndex(se, c)
		}
		insertionSortByKey(cus, counters)

		take := quotas[i]
		if rem := numCUs - allocated; take > rem {
			take = rem
		}
		for j := 0; j < take && allocated < numCUs; j++ {
			cu := cus[j]
			busy := counters[cu] > 0
			if busy {
				overlapped++
			}
			if !busy || overlapped <= req.OverlapLimit {
				mask = mask.Set(cu)
			}
			// Budget is consumed whether or not the bit was set — the
			// Algorithm 1 quirk that makes constrained allocations
			// smaller than requested instead of hunting further.
			allocated++
		}
	}

	// Progress floor. If the overlap limit starved the allocation (below
	// MinGrant, or empty outright), extend it with overlapped
	// least-loaded CUs: a real command processor must still dispatch the
	// kernel, and a near-empty grant would pin the stream to scraps for
	// the kernel's whole lifetime. This is the "allocate only what is
	// available" clause of the paper's KRISP-I description, taken at the
	// point where "available" becomes the time-shared machine.
	floor := req.MinGrant
	if floor > numCUs {
		floor = numCUs
	}
	if mask.IsEmpty() && floor < 1 {
		floor = numCUs
	}
	// A grant moderately below the fair share costs little (wave counts
	// quantize), while overlapping poisons both kernels on the shared
	// CUs, so the overlapped extension only fires when the isolated grant
	// fell below half the floor — the genuine starvation cases.
	floor = (floor + 1) / 2
	if short := floor - mask.Count(); extend && short > 0 {
		ext := a.ext[:len(counters)]
		copy(ext, counters)
		for cu := 0; cu < total; cu++ {
			if mask.Has(cu) {
				ext[cu] += busyMark
			}
		}
		extra := a.generate(ext, Request{
			NumCUs:       short,
			OverlapLimit: NoOverlapLimit,
			Policy:       req.Policy,
		}, false)
		mask = mask.Or(extra)
	}
	return mask
}

// insertionSortByKey sorts ids ascending by key[id]. Insertion sort only
// moves an element past strictly-greater predecessors, so equal keys keep
// their original order — the stability GenerateMask's determinism relies
// on — and the N<=16 inputs here beat sort.SliceStable without allocating
// its closure.
func insertionSortByKey(ids []int, key []int) {
	for i := 1; i < len(ids); i++ {
		id := ids[i]
		k := key[id]
		j := i
		for j > 0 && key[ids[j-1]] > k {
			ids[j] = ids[j-1]
			j--
		}
		ids[j] = id
	}
}

// busyMark biases already-granted CUs so the floor extension prefers other
// CUs; it is large enough to outrank any realistic kernel count.
const busyMark = 1 << 20

// seQuotas fills the per-selected-SE CU quotas for a request of numCUs
// under the given policy (Algorithm 1 lines 2-3 for Conserved; the
// Distributed/Packed variants of Fig. 7). The returned slice aliases the
// allocator's quota scratch buffer.
//
// Algorithm 1's pseudocode uses cu_per_se = ceil(num_cus/num_se) for every
// SE with the last SE absorbing the shortfall, which can leave a 2-CU
// imbalance (e.g. 40 CUs -> 14/14/12). The paper's prose says "evenly
// distribute across those SEs" and Fig. 8's smooth Conserved curve matches
// the even split, so we use floor+remainder quotas (40 -> 14/13/13).
func (a *Allocator) seQuotas(numCUs int, p Policy) []int {
	topo := a.topo
	var numSE int
	switch p {
	case Distributed:
		numSE = topo.NumSEs
		if numCUs < numSE {
			numSE = numCUs
		}
	case Packed:
		quotas := a.quotas[:ceilDiv(numCUs, topo.CUsPerSE)]
		left := numCUs
		for i := range quotas {
			take := topo.CUsPerSE
			if take > left {
				take = left
			}
			quotas[i] = take
			left -= take
		}
		return quotas
	default: // Conserved
		numSE = ceilDiv(numCUs, topo.CUsPerSE)
	}
	quotas := a.quotas[:numSE]
	base, extra := numCUs/numSE, numCUs%numSE
	for i := range quotas {
		quotas[i] = base
		if i < extra {
			quotas[i]++
		}
	}
	return quotas
}

// GenerateMask runs Algorithm 1 once with a throwaway Allocator. It is the
// compatibility wrapper for cold paths (policy carving, figures, tests);
// the dispatch fast path holds a reusable Allocator (or a MaskCache)
// instead.
func GenerateMask(topo gpu.Topology, counters []int, req Request) gpu.CUMask {
	return NewAllocator(topo).Generate(counters, req)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// FreeCUs returns the number of CUs with no kernels assigned.
func FreeCUs(counters []int) int {
	n := 0
	for _, c := range counters {
		if c == 0 {
			n++
		}
	}
	return n
}
