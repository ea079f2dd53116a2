package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"krisp/internal/telemetry"
)

// childSpec is one child process's share of an invocation: runs
// [First, First+Count) of the workload, seeded from Seed.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	First    int    `json:"first"`
	Count    int    `json:"count"`
	// Trace adds the profiled and counted passes over the same runs.
	Trace bool `json:"trace"`
	// Check runs the canonical default-seed digest after measuring.
	Check bool `json:"check"`
}

// pass is one measured sweep over a child's runs.
type pass struct {
	RunMs      []float64 `json:"run_ms"` // host wall time of each run
	CPUMs      float64   `json:"cpu_ms"` // process CPU over the runs
	Mallocs    uint64    `json:"mallocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	NumGC      uint32    `json:"num_gc"`
	PauseNs    uint64    `json:"pause_ns"`
	HeapGoal   uint64    `json:"heap_goal"` // peak GC heap goal seen after a run
	// RefMs are reference passes interleaved with the runs; RefAtRun is
	// the index of the run each one preceded (len(RunMs) for the last).
	RefMs    []float64 `json:"ref_ms"`
	RefAtRun []int     `json:"ref_at_run"`
	Sim      simTotals `json:"sim"`
	Failed   int       `json:"failed"`
	Errors   []string  `json:"errors,omitempty"`
}

func (p *pass) wallMs() float64 {
	s := 0.0
	for _, v := range p.RunMs {
		s += v
	}
	return s
}

// childReport is what a child prints for its parent, as one JSON object.
type childReport struct {
	SetupS float64 `json:"setup_s"`
	HWMKB  uint64  `json:"hwm_kb"`
	Run    pass    `json:"run"`
	// CheckDigest is the canonical default-seed digest (Check only).
	CheckDigest string `json:"check_digest,omitempty"`
	CheckError  string `json:"check_error,omitempty"`

	// Trace only: Run is then the profiled pass and Count the pass with
	// telemetry attached.
	Count       *pass              `json:"count,omitempty"`
	Layers      map[string]int64   `json:"layers,omitempty"` // run-phase CPU ns per layer
	SetupReps   int                `json:"setup_reps,omitempty"`
	SetupLayers map[string]int64   `json:"setup_layers,omitempty"` // setup-phase CPU ns per layer
	Counters    map[string]float64 `json:"counters,omitempty"`
	PartCUs     [2]float64         `json:"part_cus,omitempty"` // core partition-size histogram sum, count
	Spans       []span             `json:"spans,omitempty"`
}

// span is one benchmark call, as a Chrome-trace complete event.
type span struct {
	Name  string  `json:"name"`
	Phase string  `json:"phase"`
	Start float64 `json:"ts"`  // us since the child started
	Dur   float64 `json:"dur"` // us
}

// simTotals sums outcomes over runs. Its Digest chains the run digests in
// run order, so two passes agree only when every run agrees.
type simTotals struct {
	outcome
	Lat latHist `json:"lat"` // virtual latency, ms
}

func (t *simTotals) add(o outcome) {
	t.VS += o.VS
	t.Completed += o.Completed
	t.GoodReqs += o.GoodReqs
	t.GoodWindowS += o.GoodWindowS
	t.BadNum += o.BadNum
	t.BadDen += o.BadDen
	t.EnergyJ += o.EnergyJ
	t.EnergyReqs += o.EnergyReqs
	t.Tokens += o.Tokens
	t.Arrivals += o.Arrivals
	t.Routed += o.Routed
	t.Migrations += o.Migrations
	t.Preemptions += o.Preemptions
	t.Handoffs += o.Handoffs
	t.HandoffUs += o.HandoffUs
	t.Admitted += o.Admitted
	t.Shed += o.Shed
	t.Hedges += o.Hedges
	t.HedgeWins += o.HedgeWins
	d := newDigest()
	d.uints(t.Digest, o.Digest)
	t.Digest = d.sum()
	for _, v := range o.lat {
		t.Lat.add(v / 1000)
	}
}

// merge folds a later child's totals into t, in run order.
func (t *simTotals) merge(o simTotals) {
	t.add(o.outcome)
	t.Lat.merge(o.Lat)
}

// maxProcs is the benchmark's GOMAXPROCS: min(nproc, 2), so a bigger host
// runs the same two-way parallelism as the 2-vCPU host the baseline was
// recorded on.
func maxProcs() int { return min(runtime.NumCPU(), 2) }

var childStart = time.Now()

func runChild(spec childSpec) (*childReport, error) {
	runtime.GOMAXPROCS(maxProcs())
	w, err := workloadByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	c := &childRunner{w: w, spec: spec, ref: newReference()}
	rep := &childReport{}

	var r runner
	var setupErr error
	var setupProf []byte
	setupOnce := func() {
		rep.SetupS, setupErr = c.setup()
		r = c.r
		rep.SetupReps = 1
	}
	if spec.Trace {
		setupProf, err = profiled(func() {
			setupOnce()
			// Repeat the (now warm) set-up until the profile holds enough
			// samples to attribute it.
			for start := time.Now(); setupErr == nil && time.Since(start) < 300*time.Millisecond; rep.SetupReps++ {
				_, _ = c.setup() // repeats of a set-up that succeeded; they only feed the profile
			}
		})
		if err != nil {
			return nil, err
		}
	} else {
		setupOnce()
	}
	if setupErr != nil {
		return nil, fmt.Errorf("setup: %w", setupErr)
	}

	if spec.Trace {
		runProf, err := profiled(func() { rep.Run = c.measure(r, nil) })
		if err != nil {
			return nil, err
		}
		hub := telemetry.NewHub(false)
		count := c.measure(r, hub)
		rep.Count = &count
		if rep.Layers, err = profileLayers(runProf, ""); err != nil {
			return nil, err
		}
		if rep.SetupLayers, err = profileLayers(setupProf, "setup"); err != nil {
			return nil, err
		}
		rep.Counters, rep.PartCUs = counterTotals(hub.Registry())
	} else {
		rep.Run = c.measure(r, nil)
	}

	if spec.Check {
		d, err := c.check()
		rep.CheckDigest = d
		if err != nil {
			rep.CheckError = err.Error()
		}
	}
	rep.Spans = c.spans
	rep.HWMKB = vmHWMKB()
	return rep, nil
}

// childRunner carries one child's workload through its phases, labelling
// each call for the CPU profile and recording it as a span.
type childRunner struct {
	w     *benchWorkload
	spec  childSpec
	ref   *reference
	r     runner
	spans []span
}

// refEvery is how much run time may pass between reference passes, so
// each run's host time is adjusted by the host speed of its moment.
const refEvery = 250 * time.Millisecond

func (c *childRunner) do(phase, name string, fn func()) {
	start := time.Since(childStart)
	pprof.Do(context.Background(), pprof.Labels("workload", c.w.name, "phase", phase), func(context.Context) { fn() })
	if c.spec.Trace {
		c.spans = append(c.spans, span{
			Name: name, Phase: phase,
			Start: float64(start.Microseconds()),
			Dur:   float64((time.Since(childStart) - start).Microseconds()),
		})
	}
}

func (c *childRunner) setup() (float64, error) {
	var err error
	var el time.Duration
	c.do("setup", "setup", func() {
		t := time.Now()
		c.r, err = c.w.setup(c.spec.Seed)
		el = time.Since(t)
	})
	return el.Seconds(), err
}

// measure runs the child's runs once. Only the simulation call is timed;
// output checks and digests run outside the timed and counted region.
func (c *childRunner) measure(r runner, hub *telemetry.Hub) pass {
	var p pass
	var m0, m1 runtime.MemStats
	var lastRef time.Time
	probe := func() {
		p.RefMs = append(p.RefMs, c.ref.passMs())
		p.RefAtRun = append(p.RefAtRun, len(p.RunMs))
		lastRef = time.Now()
	}
	for i := c.spec.First; i < c.spec.First+c.spec.Count; i++ {
		if time.Since(lastRef) >= refEvery {
			probe()
		}
		var res result
		var el time.Duration
		var cpu float64
		c.do("run", "run", func() {
			runtime.ReadMemStats(&m0)
			c0 := cpuMs()
			t := time.Now()
			res = r.run(i, hub)
			el = time.Since(t)
			cpu = cpuMs() - c0
			runtime.ReadMemStats(&m1)
		})
		p.RunMs = append(p.RunMs, float64(el.Nanoseconds())/1e6)
		p.CPUMs += cpu
		p.Mallocs += m1.Mallocs - m0.Mallocs
		p.AllocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.NumGC += m1.NumGC - m0.NumGC
		p.PauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		p.HeapGoal = max(p.HeapGoal, m1.NextGC)
		var o outcome
		var err error
		c.do("check", "outcome", func() { o, err = res.outcome() })
		if err != nil {
			p.Failed++
			if len(p.Errors) < 5 {
				p.Errors = append(p.Errors, fmt.Sprintf("run %d: %v", i, err))
			}
			continue
		}
		p.Sim.add(o)
	}
	probe()
	return p
}

// check computes the canonical digest: the workload's first passLen runs
// at the default seed, which baseline.json pins.
func (c *childRunner) check() (string, error) {
	var digest string
	var err error
	c.do("check", "check", func() {
		var r runner
		if r, err = c.w.setup(defaultSeed); err != nil {
			return
		}
		var t simTotals
		for i := 0; i < c.w.passLen; i++ {
			var o outcome
			if o, err = r.run(i, nil).outcome(); err != nil {
				return
			}
			t.add(o)
		}
		digest = fmt.Sprintf("%016x", t.Digest)
	})
	return digest, err
}

// profiled runs fn under the CPU profiler and returns the profile.
func profiled(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// profileLayers attributes a profile's CPU time to layers, keeping only
// samples labelled with phase when phase is set.
func profileLayers(prof []byte, phase string) (map[string]int64, error) {
	samples, err := decodeProfile(prof)
	if err != nil {
		return nil, err
	}
	var keep func(profSample) bool
	if phase != "" {
		keep = func(s profSample) bool { return s.labels["phase"] == phase }
	}
	return layerTimes(samples, keep), nil
}

// counterTotals sums every counter in the registry by its name without
// labels, and returns the core partition-size histogram's sum and count.
func counterTotals(reg *telemetry.Registry) (map[string]float64, [2]float64) {
	out := map[string]float64{}
	var part [2]float64
	for _, m := range reg.Snapshot() {
		base, _, _ := strings.Cut(m.Name, "{")
		switch {
		case m.Type == "counter":
			out[base] += m.Value
		case base == "krisp_core_partition_cus":
			part[0] += m.Sum
			part[1] += float64(m.Count)
		}
	}
	return out, part
}

func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// vmHWMKB reads the process's peak resident set size.
func vmHWMKB() uint64 { return procStatusKB("self", "VmHWM:") }

// procStatusKB reads one kB-valued field of /proc/<pid>/status; 0 when
// unavailable.
func procStatusKB(pid, key string) uint64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			v, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return v
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// Host-speed reference.

// reference is a fixed stdlib-only probe of host speed: one copy per
// GOMAXPROCS goroutine of a seeded sort, map churn, pointer chasing through
// a shuffled list and sha256. Its buffers are allocated once, so a timed
// pass allocates next to nothing and no GC cycle lands inside it.
type reference struct{ scratch []*refScratch }

type refNode struct {
	next *refNode
	v    int
}

type refScratch struct {
	seed  int64
	rng   *rand.Rand
	xs    []int
	perm  []int32
	m     map[int]int
	nodes []refNode
	buf   []byte
	sum   uint64
}

const refN = 8192

func newReference() *reference {
	r := &reference{}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		r.scratch = append(r.scratch, &refScratch{
			seed:  int64(g),
			rng:   rand.New(rand.NewSource(int64(g))),
			xs:    make([]int, refN),
			perm:  make([]int32, refN),
			m:     make(map[int]int, 2048),
			nodes: make([]refNode, refN),
			buf:   make([]byte, 16<<10),
		})
	}
	r.pass() // warm-up: fault in every buffer and grow the map
	return r
}

// passMs times one pass.
func (r *reference) passMs() float64 {
	t := time.Now()
	r.pass()
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

func (r *reference) pass() {
	var wg sync.WaitGroup
	for _, s := range r.scratch {
		wg.Add(1)
		go func(s *refScratch) {
			defer wg.Done()
			s.work()
		}(s)
	}
	wg.Wait()
}

func (s *refScratch) work() {
	s.rng.Seed(s.seed)
	for i := range s.xs {
		s.xs[i] = s.rng.Int()
	}
	sort.Ints(s.xs)

	for i := range s.xs {
		s.m[s.rng.Intn(2048)] += i
		delete(s.m, s.rng.Intn(2048))
	}

	// Link the nodes in a seeded random order, then walk the list.
	for i := range s.perm {
		j := s.rng.Intn(i + 1)
		s.perm[i] = s.perm[j]
		s.perm[j] = int32(i)
	}
	for i := 0; i < len(s.perm)-1; i++ {
		s.nodes[s.perm[i]].next = &s.nodes[s.perm[i+1]]
		s.nodes[s.perm[i]].v = i
	}
	s.nodes[s.perm[len(s.perm)-1]].next = nil
	sum := uint64(len(s.m))
	for n := &s.nodes[s.perm[0]]; n != nil; n = n.next {
		sum += uint64(n.v)
	}

	s.rng.Read(s.buf)
	for i := 0; i < 4; i++ {
		h := sha256.Sum256(s.buf)
		s.buf[i] = h[0]
		sum += uint64(h[1])
	}
	s.sum += sum + uint64(s.xs[0])
}
