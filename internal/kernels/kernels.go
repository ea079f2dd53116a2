// Package kernels describes GPU compute kernels the way KRISP's profiler
// sees them: a named kernel family (mirroring MIOpen / rocBLAS kernel
// names), a launch geometry (workgroups x workgroup size), a compute cost,
// and a memory-traffic cost.
//
// Constructors derive gpu.KernelWork from layer-level parameters using a
// roofline-style model: per-workgroup-slot compute throughput plus total
// DRAM traffic. The resulting kernels reproduce the paper's Fig. 6
// observation that neither kernel size (total threads) nor input size
// predicts the minimum required CUs — kernel *type* dominates: dense convs
// and large GEMMs need most of the machine, elementwise/normalization
// kernels are bandwidth-bound and tolerate tiny partitions, and mid-size
// single-wave kernels have knees wherever their wave count quantizes.
package kernels

import (
	"fmt"

	"krisp/internal/gpu"
	"krisp/internal/sim"
)

// Family names mimic the kernel symbol names that show up in ROCm traces.
const (
	FamilyConvDirect  = "miopenSp3AsmConv_v21_1_2"
	FamilyConvFFT     = "MIOpenConvFFT_fwd_in"
	FamilyConvGroup   = "gfx9_f3x2_fp32_stride1_group"
	FamilyGEMM        = "Cijk_Ailk_Bljk_SB_MT128x128"
	FamilyGEMMSmall   = "Cijk_Ailk_Bljk_SB_MT64x64"
	FamilyBatchNorm   = "MIOpenBatchNormFwdInferSpatial"
	FamilyPooling     = "mloPoolingG"
	FamilySoftmax     = "softmax_warp_forward"
	FamilyLayerNorm   = "vectorized_layer_norm_kernel"
	FamilyElementwise = "elementwise_kernel_4"
	FamilyReduce      = "reduce_kernel_512"
	FamilyEmbedding   = "indexSelectLargeIndex"
	FamilyIm2Col      = "MIOpenIm2Col"
	FamilyVecMult     = "vec_mult"
)

// Per-workgroup-slot fp32 throughput, in FLOPs per microsecond. The MI50
// peaks at ~13.4 TFLOPS over 60 CUs x 10 slots, i.e. ~22.3 GFLOP/s per
// slot.
const slotFLOPsPerUs = 22300.0

// efficiency is the fraction of peak a family actually achieves; tuned to
// typical achieved throughput of each kernel class.
var efficiency = map[string]float64{
	FamilyConvDirect:  0.72,
	FamilyConvFFT:     0.45,
	FamilyConvGroup:   0.55,
	FamilyGEMM:        0.85,
	FamilyGEMMSmall:   0.60,
	FamilyBatchNorm:   0.30,
	FamilyPooling:     0.35,
	FamilySoftmax:     0.25,
	FamilyLayerNorm:   0.30,
	FamilyElementwise: 0.50,
	FamilyReduce:      0.40,
	FamilyEmbedding:   0.35,
	FamilyIm2Col:      0.40,
	FamilyVecMult:     0.50,
}

// Phase tags a kernel with the autoregressive serving phase it belongs
// to. Classic fixed-sequence models leave it at PhaseNone (the zero
// value), so nothing about their descriptors, keys, or database entries
// changes. LLM models tag their prefill and decode kernels so a
// phase-aware right-sizer can grant different partition sizes to the two
// phases of the same replica — the kernel-wise argument applied to the
// starkest minCU split the workload class has.
type Phase uint8

const (
	// PhaseNone marks a kernel outside any autoregressive phase.
	PhaseNone Phase = iota
	// PhasePrefill marks prompt-processing kernels: large GEMMs, compute
	// bound, high minCU.
	PhasePrefill
	// PhaseDecode marks per-token generation kernels: batched GEMV plus
	// KV-cache scans, bandwidth bound, low minCU.
	PhaseDecode
)

func (p Phase) String() string {
	switch p {
	case PhasePrefill:
		return "prefill"
	case PhaseDecode:
		return "decode"
	default:
		return "none"
	}
}

// Desc is a fully-specified kernel dispatch: what the ROCm runtime would
// see in an AQL kernel packet, plus bookkeeping for profiling figures.
type Desc struct {
	// Name is the kernel family (symbol) name.
	Name string
	// Work is the device-level cost model input.
	Work gpu.KernelWork
	// InputBytes is the size of the kernel's input tensor(s), used for the
	// Fig. 6b input-size scatter; it differs from Work.MemBytes, which is
	// total DRAM traffic.
	InputBytes float64
	// Phase is the autoregressive serving phase, if any (LLM models only).
	Phase Phase
}

func (d Desc) String() string {
	return fmt.Sprintf("%s{wgs=%d thr=%d}", d.Name, d.Work.Workgroups, d.Work.ThreadsPerWG)
}

// Key identifies a kernel variant for the performance database: the same
// family launched with a different geometry is a different database entry,
// matching how MIOpen's perf DB keys on problem configuration.
func (d Desc) Key() string {
	return fmt.Sprintf("%s/%d/%d", d.Name, d.Work.Workgroups, d.Work.ThreadsPerWG)
}

// build assembles a Desc from raw costs, applying family efficiency.
func build(name string, wgs, threadsPerWG int, flopsPerWG, memBytes, inputBytes float64) Desc {
	if wgs < 1 {
		wgs = 1
	}
	eff := efficiency[name]
	if eff == 0 {
		eff = 0.5
	}
	wgTime := flopsPerWG / (slotFLOPsPerUs * eff)
	if wgTime < 0.02 {
		wgTime = 0.02 // floor: even trivial WGs cost some cycles
	}
	return Desc{
		Name: name,
		Work: gpu.KernelWork{
			Workgroups:   wgs,
			ThreadsPerWG: threadsPerWG,
			WGTime:       sim.Duration(wgTime),
			MemBytes:     memBytes,
			Tail:         0.5,
		},
		InputBytes: inputBytes,
	}
}

const f32 = 4 // bytes per fp32 element

// Conv2D models a direct convolution: batch x cin x h x w input, cout
// filters of k x k, given stride. Each workgroup produces a 4096-element
// output tile.
func Conv2D(batch, cin, h, w, cout, k, stride int) Desc {
	oh, ow := (h-k)/stride+1, (w-k)/stride+1
	if oh < 1 {
		oh = 1
	}
	if ow < 1 {
		ow = 1
	}
	outElems := batch * cout * oh * ow
	flopsPerOut := float64(2 * k * k * cin)
	const tile = 4096
	wgs := (outElems + tile - 1) / tile
	in := float64(batch*cin*h*w) * f32
	weights := float64(cout*cin*k*k) * f32
	out := float64(outElems) * f32
	return build(FamilyConvDirect, wgs, 256, flopsPerOut*tile, in+weights+out, in)
}

// GEMM models a rocBLAS SGEMM C[m,n] += A[m,k] x B[k,n] with 128x128
// macro-tiles, optionally batched.
func GEMM(batch, m, n, k int) Desc {
	tm, tn := (m+127)/128, (n+127)/128
	wgs := tm * tn * batch
	flopsPerWG := float64(2 * 128 * 128 * k)
	bytes := float64(batch*(m*k+k*n+m*n)) * f32
	in := float64(batch*m*k) * f32
	return build(FamilyGEMM, wgs, 256, flopsPerWG, bytes, in)
}

// BatchNorm models inference-mode spatial batch norm over batch x c x h x w.
func BatchNorm(batch, c, h, w int) Desc {
	elems := batch * c * h * w
	const perWG = 4096
	wgs := (elems + perWG - 1) / perWG
	bytes := float64(elems) * f32 * 2.5 // read + write + stats
	return build(FamilyBatchNorm, wgs, 256, 4*perWG, bytes, float64(elems)*f32)
}

// Pooling models max/avg pooling with window k over batch x c x h x w.
func Pooling(batch, c, h, w, k int) Desc {
	outElems := batch * c * (h / k) * (w / k)
	if outElems < 1 {
		outElems = 1
	}
	const perWG = 2048
	wgs := (outElems + perWG - 1) / perWG
	in := float64(batch*c*h*w) * f32
	return build(FamilyPooling, wgs, 256, float64(k*k)*perWG, in+float64(outElems)*f32, in)
}

// Softmax models a warp-per-row softmax over rows x cols.
func Softmax(rows, cols int) Desc {
	// One warp (64 threads) per row, 4 rows per 256-thread WG.
	wgs := (rows + 3) / 4
	bytes := float64(rows*cols) * f32 * 2
	return build(FamilySoftmax, wgs, 256, float64(8*cols*4), bytes, float64(rows*cols)*f32)
}

// LayerNorm models a vectorized layer norm over rows x cols.
func LayerNorm(rows, cols int) Desc {
	wgs := (rows + 3) / 4
	bytes := float64(rows*cols) * f32 * 2
	return build(FamilyLayerNorm, wgs, 256, float64(10*cols*4), bytes, float64(rows*cols)*f32)
}

// Elementwise models a fused pointwise op (add, relu, gelu, ...) over elems
// elements with the given arity (tensors read).
func Elementwise(elems, arity int) Desc {
	const perWG = 4096
	wgs := (elems + perWG - 1) / perWG
	bytes := float64(elems) * f32 * float64(arity+1)
	return build(FamilyElementwise, wgs, 256, float64(2*perWG), bytes, float64(elems*arity)*f32)
}

// Embedding models an embedding-table gather of rows x dim.
func Embedding(rows, dim int) Desc {
	const rowsPerWG = 16
	wgs := (rows + rowsPerWG - 1) / rowsPerWG
	bytes := float64(rows*dim) * f32 * 2
	return build(FamilyEmbedding, wgs, 256, float64(dim*rowsPerWG), bytes, bytes/2)
}

// VecMult is the microbenchmark kernel of the paper's Fig. 8: a dense
// vector multiply with a tunable workgroup count, compute-dominated so CU
// distribution effects show cleanly.
func VecMult(wgs int) Desc {
	return build(FamilyVecMult, wgs, 256, 40*slotFLOPsPerUs*0.5, float64(wgs)*1024*f32, float64(wgs)*1024*f32)
}

// SizedCompute builds a synthetic compute-bound kernel whose minimum
// required CUs lands near target when allocated with the Conserved policy:
// it issues exactly target x SlotsPerCU workgroups so the wave count is 1
// at or above the target allocation and 2 below it. The scale factor
// multiplies the per-workgroup time, stretching total duration without
// moving the knee. Used by model calibration.
func SizedCompute(name string, target, slotsPerCU, scale int, wgTime sim.Duration) Desc {
	if target < 1 {
		target = 1
	}
	if scale < 1 {
		scale = 1
	}
	wgs := target * slotsPerCU
	d := Desc{
		Name: name,
		Work: gpu.KernelWork{
			Workgroups:   wgs,
			ThreadsPerWG: 256,
			WGTime:       wgTime * sim.Duration(scale),
			Tail:         0.5,
		},
		InputBytes: float64(wgs) * 1024,
	}
	return d
}
