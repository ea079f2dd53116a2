package kernels

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConstructorsProduceValidWork(t *testing.T) {
	descs := []Desc{
		Conv2D(32, 64, 56, 56, 128, 3, 1),
		GEMM(32, 512, 512, 512),
		BatchNorm(32, 64, 56, 56),
		Pooling(32, 64, 56, 56, 2),
		Softmax(32*12*128, 128),
		LayerNorm(32*128, 768),
		Elementwise(32*64*56*56, 2),
		Embedding(32*128, 768),
		VecMult(4096),
	}
	for _, d := range descs {
		if d.Name == "" {
			t.Errorf("%v: empty name", d)
		}
		if d.Work.Workgroups < 1 {
			t.Errorf("%s: %d workgroups", d.Name, d.Work.Workgroups)
		}
		if d.Work.ThreadsPerWG < 1 {
			t.Errorf("%s: %d threads/WG", d.Name, d.Work.ThreadsPerWG)
		}
		if d.Work.WGTime <= 0 {
			t.Errorf("%s: WGTime %v", d.Name, d.Work.WGTime)
		}
		if d.Work.MemBytes < 0 || d.InputBytes < 0 {
			t.Errorf("%s: negative bytes", d.Name)
		}
	}
}

func TestDescKeyDistinguishesGeometry(t *testing.T) {
	a := GEMM(32, 512, 512, 512)
	b := GEMM(32, 512, 512, 1024) // same tiles, different K
	c := GEMM(32, 1024, 512, 512)
	if a.Key() == c.Key() {
		t.Error("different tile counts share a key")
	}
	if a.Key() != b.Key() {
		// Same geometry: K changes WGTime but not the key. The perf DB
		// keys on launch geometry like MIOpen's does; this is intentional
		// and the profiler stores the worst case.
		t.Errorf("same-geometry kernels should share a key: %s vs %s", a.Key(), b.Key())
	}
	if !strings.Contains(a.String(), "Cijk") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestElementwiseIsBandwidthBound(t *testing.T) {
	d := Elementwise(32*64*112*112, 2)
	computeTime := float64(d.Work.Workgroups) / 600 * float64(d.Work.WGTime)
	memTime := d.Work.MemBytes / 1e6
	if memTime <= computeTime {
		t.Errorf("elementwise should be memory-bound: mem %v <= compute %v", memTime, computeTime)
	}
}

func TestGEMMIsComputeBound(t *testing.T) {
	d := GEMM(32, 1024, 1024, 1024)
	computeTime := float64(d.Work.Workgroups) / 600 * float64(d.Work.WGTime)
	memTime := d.Work.MemBytes / 1e6
	if computeTime <= memTime {
		t.Errorf("large GEMM should be compute-bound: compute %v <= mem %v", computeTime, memTime)
	}
}

func TestSizedComputeGeometry(t *testing.T) {
	d := SizedCompute("k", 12, 10, 1, 5)
	if d.Work.Workgroups != 120 {
		t.Errorf("Workgroups = %d, want 120", d.Work.Workgroups)
	}
	d = SizedCompute("k", 26, 10, 3, 5)
	if d.Work.Workgroups != 260 {
		t.Errorf("Workgroups = %d, want 260", d.Work.Workgroups)
	}
	if d.Work.WGTime != 15 {
		t.Errorf("WGTime = %v, want 15 (scale x base)", d.Work.WGTime)
	}
	// Degenerate inputs clamp.
	d = SizedCompute("k", 0, 10, 0, 5)
	if d.Work.Workgroups != 10 {
		t.Errorf("clamped Workgroups = %d, want 10", d.Work.Workgroups)
	}
}

// Property: scaling batch size never decreases workgroup count or memory
// traffic for the main layer kernels.
func TestBatchMonotonicityProperty(t *testing.T) {
	prop := func(b8 uint8) bool {
		b := int(b8%31) + 1
		small := GEMM(b, 256, 256, 256)
		big := GEMM(b+1, 256, 256, 256)
		if big.Work.Workgroups < small.Work.Workgroups {
			return false
		}
		sc := Conv2D(b, 64, 56, 56, 64, 3, 1)
		bc := Conv2D(b+1, 64, 56, 56, 64, 3, 1)
		return bc.Work.Workgroups >= sc.Work.Workgroups && bc.Work.MemBytes >= sc.Work.MemBytes
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestThreadsReported(t *testing.T) {
	d := VecMult(100)
	if got := d.Work.Threads(); got != 100*256 {
		t.Errorf("Threads() = %d, want %d", got, 100*256)
	}
}
