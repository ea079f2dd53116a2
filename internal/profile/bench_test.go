package profile_test

import (
	"testing"

	"krisp/internal/kernels"
	"krisp/internal/models"
	"krisp/internal/profile"
)

// BenchmarkKernelMinCU measures one minCU search — the unit of
// install-time profiling.
func BenchmarkKernelMinCU(b *testing.B) {
	p := profile.New(profile.DefaultConfig())
	work := kernels.GEMM(32, 512, 512, 512).Work
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.KernelMinCU(work)
	}
}

// BenchmarkModelProfile measures profiling a full model into the
// performance database (albert: 304 kernels, ~30 distinct variants).
func BenchmarkModelProfile(b *testing.B) {
	p := profile.New(profile.DefaultConfig())
	m, _ := models.ByName("albert")
	ks := m.Kernels(models.CalibrationBatch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := profile.NewDB()
		db.Profile(p, ks)
	}
}

// BenchmarkModelRightSize measures the model kneepoint search (Fig. 3's
// per-point cost).
func BenchmarkModelRightSize(b *testing.B) {
	p := profile.New(profile.DefaultConfig())
	m, _ := models.ByName("resnet152")
	ks := m.Kernels(models.CalibrationBatch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.ModelRightSize(ks)
	}
}
