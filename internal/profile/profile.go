// Package profile implements KRISP's profile-guided right-sizing inputs:
//
//   - the per-kernel minimum required CUs ("minCU") — the least number of
//     CUs, allocated with the Conserved policy, at which the kernel's
//     isolated latency matches its full-GPU latency (paper §IV-B);
//   - the per-model right-size ("kneepoint") used by Model Right-Size
//     partitioning, i.e. the prior works' GSLICE/Gpulet/PARIS metric;
//   - the performance database (the "Required CUs table" stored alongside
//     MIOpen-style perf DBs at library install time) that the runtime
//     consults on every kernel launch.
//
// Profiling uses the device's closed-form isolated duration, so a full
// model sweep costs microseconds of wall time instead of event simulation.
package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"krisp/internal/alloc"
	"krisp/internal/gpu"
	"krisp/internal/kernels"
	"krisp/internal/sim"
)

// Config parameterizes profiling.
type Config struct {
	// Spec is the device being profiled.
	Spec gpu.DeviceSpec
	// Tolerance is the slowdown (relative to full GPU) still considered
	// "the same latency" when searching for minCU. The paper uses the
	// point of indistinguishable latency; 5% absorbs measurement noise.
	Tolerance float64
	// LaunchOverhead is the per-kernel launch cost (runtime + packet
	// processing) added to every kernel latency. It makes short kernels
	// launch-dominated and hence CU-tolerant, as observed on real stacks.
	LaunchOverhead sim.Duration
}

// DefaultConfig profiles an MI50 with 5% tolerance and a 6us launch cost.
func DefaultConfig() Config {
	return Config{Spec: gpu.MI50Spec(), Tolerance: 0.05, LaunchOverhead: 6}
}

// Profiler evaluates kernel and model latencies on an idle device.
type Profiler struct {
	cfg Config
	dev *gpu.Device
	// maskCache holds the Conserved mask for each partition size; masks on
	// an idle device depend only on the size.
	maskCache []gpu.CUMask
}

// WithDefaults returns cfg with a non-positive Tolerance replaced by the
// 5% default: the configuration a Profiler actually runs with.
func (cfg Config) WithDefaults() Config {
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.05
	}
	return cfg
}

// New creates a Profiler for the configured device.
func New(cfg Config) *Profiler {
	cfg = cfg.WithDefaults()
	p := &Profiler{
		cfg: cfg,
		dev: gpu.NewDevice(sim.New(), cfg.Spec, nil),
	}
	total := cfg.Spec.Topo.TotalCUs()
	p.maskCache = make([]gpu.CUMask, total+1)
	// One reusable allocator for the whole sweep: GenerateMask would build
	// (and throw away) an Allocator's scratch slices per partition size.
	a := alloc.NewAllocator(cfg.Spec.Topo)
	for n := 1; n <= total; n++ {
		p.maskCache[n] = a.Generate(nil, alloc.Request{
			NumCUs:       n,
			OverlapLimit: alloc.NoOverlapLimit,
		})
	}
	return p
}

// Mask returns the idle-device Conserved mask of n CUs used for profiling.
func (p *Profiler) Mask(n int) gpu.CUMask {
	if n < 1 {
		n = 1
	}
	if n >= len(p.maskCache) {
		n = len(p.maskCache) - 1
	}
	return p.maskCache[n]
}

// KernelLatency returns the isolated latency of one kernel on an n-CU
// Conserved partition, including launch overhead.
func (p *Profiler) KernelLatency(work gpu.KernelWork, n int) sim.Duration {
	return p.cfg.LaunchOverhead + p.dev.IsolatedDuration(work, p.Mask(n))
}

// KernelMinCU returns the minimum required CUs for a kernel: the smallest
// n such that every partition of n or more CUs stays within Tolerance of
// the full-GPU latency. Scanning from the top handles the (physical)
// non-monotonicities that SE-boundary effects introduce.
func (p *Profiler) KernelMinCU(work gpu.KernelWork) int {
	return p.knee(func(n int) sim.Duration { return p.KernelLatency(work, n) })
}

// ModelLatency returns the isolated latency of a full inference pass (the
// sum of its kernel launches) on an n-CU Conserved partition.
func (p *Profiler) ModelLatency(descs []kernels.Desc, n int) sim.Duration {
	var total sim.Duration
	for _, d := range descs {
		total += p.KernelLatency(d.Work, n)
	}
	return total
}

// ModelRightSize returns the model-wise right-size (the prior works'
// kneepoint): the smallest partition that keeps the whole inference pass
// within Tolerance of its full-GPU latency.
func (p *Profiler) ModelRightSize(descs []kernels.Desc) int {
	return p.knee(func(n int) sim.Duration { return p.ModelLatency(descs, n) })
}

// SweepRightSize reads ModelRightSize's kneepoint off the model's CUSweep.
func (p *Profiler) SweepRightSize(sweep []SweepPoint) int {
	return p.knee(func(n int) sim.Duration { return sweep[n-1].Latency })
}

// knee scans partition sizes down from the full device and returns the
// smallest one whose latency stays within Tolerance of the full-GPU value.
func (p *Profiler) knee(latency func(n int) sim.Duration) int {
	total := p.cfg.Spec.Topo.TotalCUs()
	limit := latency(total) * (1 + p.cfg.Tolerance)
	minCU := total
	for n := total; n >= 1; n-- {
		if latency(n) > limit {
			break
		}
		minCU = n
	}
	return minCU
}

// SweepPoint is one point of a CU-restriction sweep (Fig. 3).
type SweepPoint struct {
	CUs int
	// Latency is the isolated inference latency at this partition size.
	Latency sim.Duration
	// Throughput is normalized to the full-GPU throughput (1.0 at 60 CUs).
	Throughput float64
}

// CUSweep evaluates a model's latency and normalized throughput across
// every partition size from 1 CU to the full device (Fig. 3).
func (p *Profiler) CUSweep(descs []kernels.Desc) []SweepPoint {
	total := p.cfg.Spec.Topo.TotalCUs()
	full := p.ModelLatency(descs, total)
	out := make([]SweepPoint, 0, total)
	for n := 1; n <= total; n++ {
		l := p.ModelLatency(descs, n)
		out = append(out, SweepPoint{CUs: n, Latency: l, Throughput: float64(full / l)})
	}
	return out
}

// Entry is one row of the performance database: the profiled minimum
// required CUs for a kernel variant, plus the metadata the Fig. 6 scatter
// plots need.
type Entry struct {
	Key          string  `json:"key"`
	Name         string  `json:"name"`
	Workgroups   int     `json:"workgroups"`
	ThreadsPerWG int     `json:"threads_per_wg"`
	MinCU        int     `json:"min_cu"`
	FullLatency  float64 `json:"full_latency_us"`
	InputBytes   float64 `json:"input_bytes"`
}

// variant is the struct form of Entry.Key / kernels.Desc.Key — comparable,
// so the launch-path lookup never formats a key string.
type variant struct {
	name         string
	workgroups   int
	threadsPerWG int
}

// DB is the Required CUs table: kernel variant -> profiled minCU. In the
// paper this lives in CPU-side memory next to the accelerated library's
// perf DB and is consulted by the runtime on each kernel launch.
//
// entries keys on the string form (the JSON/serialization identity);
// minCUs mirrors it keyed on the struct form so MinCU — called once per
// kernel launch on the dispatch hot path — costs one map probe and zero
// allocations instead of an fmt.Sprintf.
type DB struct {
	entries map[string]Entry
	minCUs  map[variant]int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{entries: make(map[string]Entry), minCUs: make(map[variant]int)}
}

// Len returns the number of kernel variants profiled.
func (db *DB) Len() int { return len(db.entries) }

// Lookup returns the entry for a kernel variant.
func (db *DB) Lookup(key string) (Entry, bool) {
	e, ok := db.entries[key]
	return e, ok
}

// MinCU returns the profiled minimum CUs for a kernel, or the full device
// if the kernel was never profiled — the conservative fallback the paper's
// runtime applies to unknown kernels.
func (db *DB) MinCU(d kernels.Desc, totalCUs int) int {
	v := variant{name: d.Name, workgroups: d.Work.Workgroups, threadsPerWG: d.Work.ThreadsPerWG}
	if cu, ok := db.minCUs[v]; ok {
		return cu
	}
	return totalCUs
}

// Entries returns all rows (unordered).
func (db *DB) Entries() []Entry {
	out := make([]Entry, 0, len(db.entries))
	for _, e := range db.entries {
		out = append(out, e)
	}
	return out
}

// Add inserts or overwrites an entry, keeping the larger MinCU when the
// same variant is profiled twice with different workloads (worst case
// wins, so the runtime never under-allocates).
func (db *DB) Add(e Entry) {
	if prev, ok := db.entries[e.Key]; ok && prev.MinCU > e.MinCU {
		return
	}
	db.entries[e.Key] = e
	db.minCUs[variant{name: e.Name, workgroups: e.Workgroups, threadsPerWG: e.ThreadsPerWG}] = e.MinCU
}

// Merge adds every row of other whose variant db lacks, so the first
// profile of a variant wins, as in Profile.
func (db *DB) Merge(other *DB) {
	for key, e := range other.entries {
		if _, ok := db.entries[key]; !ok {
			db.Add(e)
		}
	}
}

// Profile profiles every kernel and records it in the database. It is the
// install-time step the paper amortizes into library installation.
func (db *DB) Profile(p *Profiler, descs []kernels.Desc) {
	total := p.cfg.Spec.Topo.TotalCUs()
	for _, d := range descs {
		key := d.Key()
		if _, ok := db.entries[key]; ok {
			continue
		}
		db.Add(Entry{
			Key:          key,
			Name:         d.Name,
			Workgroups:   d.Work.Workgroups,
			ThreadsPerWG: d.Work.ThreadsPerWG,
			MinCU:        p.KernelMinCU(d.Work),
			FullLatency:  float64(p.KernelLatency(d.Work, total)),
			InputBytes:   d.InputBytes,
		})
	}
}

// Save writes the database as JSON.
func (db *DB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db.Entries())
}

// Load reads a database previously written by Save.
func Load(r io.Reader) (*DB, error) {
	var entries []Entry
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return nil, fmt.Errorf("profile: loading database: %w", err)
	}
	db := NewDB()
	for _, e := range entries {
		db.Add(e)
	}
	return db, nil
}
