package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
)

// burstRes is the paper's 1.2 Mpx size. Its float, 16-bit and RGB planes
// are larger than a 2 MiB L2 cache, and a sweep over every kernel and ISA
// takes about a second, so a run holds over ten costs of each class (at
// 5 Mpx it held three or four, too few for lowCost to find the host
// unloaded).
var burstRes = image.Res1MP

// bigRes is the paper's 5 Mpx camera resolution, at which the per-layer
// probes time fusion and plane checksums: all its planes are larger than
// the L2 cache.
var bigRes = image.Res5MP

const burstFrames = 5 // the paper's image burst

var burstISAs = []cv.ISA{cv.ISAScalar, cv.ISANEON, cv.ISASSE2}

type frame struct {
	u8, f32 *image.Mat
	rgb     *image.RGB
}

// kernelSpec is one cv kernel with the parameters the benchmark runs it
// with.
type kernelSpec struct {
	name string
	dst  image.Type
	half bool // the output is half the input's width and height
	run  func(o *cv.Ops, f *frame, dst *image.Mat) error
}

// kernelTable lists the kernels the benchmark times: the burst's seven,
// then the two only the per-layer probes time.
var kernelTable = []kernelSpec{
	{"convert", image.S16, false, func(o *cv.Ops, f *frame, d *image.Mat) error { return o.ConvertF32ToS16(f.f32, d) }},
	{"threshold", image.U8, false, func(o *cv.Ops, f *frame, d *image.Mat) error {
		return o.Threshold(f.u8, d, 128, 255, cv.ThreshTrunc)
	}},
	{"gaussian", image.U8, false, func(o *cv.Ops, f *frame, d *image.Mat) error { return o.GaussianBlur(f.u8, d) }},
	{"sobel", image.S16, false, func(o *cv.Ops, f *frame, d *image.Mat) error { return o.SobelFilter(f.u8, d, 1, 0) }},
	{"edges", image.U8, false, func(o *cv.Ops, f *frame, d *image.Mat) error { return o.DetectEdges(f.u8, d, 100) }},
	{"canny", image.U8, false, func(o *cv.Ops, f *frame, d *image.Mat) error { return o.Canny(f.u8, d, 60, 200) }},
	{"rgb2gray", image.U8, false, func(o *cv.Ops, f *frame, d *image.Mat) error { return o.RGBToGray(f.rgb, d) }},
	{"median", image.U8, false, func(o *cv.Ops, f *frame, d *image.Mat) error { return o.MedianBlur3x3(f.u8, d) }},
	{"resize", image.U8, true, func(o *cv.Ops, f *frame, d *image.Mat) error { return o.ResizeHalf(f.u8, d) }},
}

var burstKernels = kernelTable[:7]

// tolerance is the allowed per-element difference from the scalar
// referee: NEON's vcvt truncates where ARM scalar code rounds, so the NEON
// convert may differ by 1 LSB.
func tolerance(kernel string, isa cv.ISA) int {
	if kernel == "convert" && isa == cv.ISANEON {
		return 1
	}
	return 0
}

// ownReferee reports the kernels whose scalar code depends on the ISA
// family: convert rounds half to even on Intel and half away from zero on
// ARM (and on the scalar ISA), so the SSE2 convert is checked against the
// SSE2 Ops's own scalar path.
func ownReferee(kernel string, isa cv.ISA) bool {
	return kernel == "convert" && isa == cv.ISASSE2
}

func makeFrame(res image.Resolution, seed uint64) frame {
	return frame{
		u8:  image.Synthetic(res, seed),
		f32: image.SyntheticF32(res, seed),
		rgb: image.SyntheticRGB(res, seed),
	}
}

func makeFrames(seed uint64, res image.Resolution) []frame {
	out := make([]frame, burstFrames)
	for i := range out {
		out[i] = makeFrame(res, seed*burstFrames+uint64(i)+1)
	}
	return out
}

// newDst allocates k's output plane for a w x h input.
func (k kernelSpec) newDst(w, h int) *image.Mat {
	if k.half {
		w, h = w/2, h/2
	}
	return image.NewMat(w, h, k.dst)
}

// burstOps returns the burst's Ops for isa: untraced, unguarded, serial,
// fusion on. The burst is timed in CPU time, and banding over several
// workers adds CPU time (idle workers spin before they park) that varies
// with how busy the host is; the par layer's speedup is measured by the
// per-layer probes instead.
func burstOps(isa cv.ISA) *cv.Ops {
	o := cv.NewOps(isa, nil)
	o.SetParallel(cv.ParallelConfig{Workers: 1})
	o.SetFuse(cv.FuseConfig{Enabled: true})
	return o
}

// runBurst processes the synthetic burst frame by frame, each frame
// through all seven kernels on every ISA. One operation is one kernel
// call on one frame, timed in CPU time, and the kernel/ISA pairs are the
// operation classes. Each SIMD output is
// compared with the scalar referee's output for the same frame (the scalar
// ISA's, except where ownReferee says otherwise), and the fused Canny
// and DetectEdges outputs with staged execution.
func runBurst(r *runCtx, setups int) (outcome, error) {
	oc := outcome{params: map[string]any{
		"resolution": burstRes.Name, "frames": burstFrames, "workers": 1,
		"fuse": true, "kernels": len(burstKernels),
	}}
	var frames []frame
	for i := 0; i < setups; i++ {
		frames = nil
		runtime.GC()
		t := startSetup(i == 0)
		frames = makeFrames(r.seed, burstRes)
		oc.endSetup(t)
	}
	ops := map[cv.ISA]*cv.Ops{}
	referee := map[cv.ISA]*cv.Ops{}
	for _, isa := range burstISAs {
		ops[isa] = burstOps(isa)
		referee[isa] = burstOps(isa)
		referee[isa].SetUseOptimized(false)
	}
	ref := make([]*image.Mat, len(burstKernels))
	work := make([]*image.Mat, len(burstKernels))
	alt := make([]*image.Mat, len(burstKernels)) // same-ISA referee outputs
	for k, bk := range burstKernels {
		ref[k] = bk.newDst(burstRes.Width, burstRes.Height)
		work[k] = bk.newDst(burstRes.Width, burstRes.Height)
		for _, isa := range burstISAs {
			if ownReferee(bk.name, isa) {
				alt[k] = bk.newDst(burstRes.Width, burstRes.Height)
			}
		}
	}

	px := float64(burstRes.Pixels()) / 1e6
	opMS := map[string][]float64{}    // frame wall times by ISA
	opCPUMS := map[string][]float64{} // kernel call CPU times by kernel/ISA
	isaTime := map[cv.ISA]time.Duration{}
	isaMpx := map[cv.ISA]float64{}
	start := time.Now()
	sweeps := 0
	for ; sweeps == 0 || time.Since(start) < r.seconds; sweeps++ {
		fi := sweeps % burstFrames
		f := &frames[fi]
		trace := fmt.Sprintf("frame%d", sweeps)
		root := r.tr.begin(0, trace, "burst.frame")
		for _, isa := range burstISAs {
			sp := r.tr.begin(root, trace, "burst."+isa.String())
			var op time.Duration
			for k, bk := range burstKernels {
				dst := work[k]
				if isa == cv.ISAScalar {
					dst = ref[k]
				}
				ks := r.tr.begin(sp, trace, "cv."+bk.name)
				c0, t0 := cpuTime(), time.Now()
				err := bk.run(ops[isa], f, dst)
				op += time.Since(t0)
				class := bk.name + "/" + isa.String()
				opCPUMS[class] = append(opCPUMS[class], ms(cpuTime()-c0))
				r.tr.end(ks)
				if err != nil {
					return oc, fmt.Errorf("%s/%v: %w", bk.name, isa, err)
				}
				if isa != cv.ISAScalar {
					cs := r.tr.begin(sp, trace, "check.compare")
					want := ref[k]
					if ownReferee(bk.name, isa) {
						want = alt[k]
						if err := bk.run(referee[isa], f, want); err != nil {
							return oc, fmt.Errorf("%s/%v referee: %w", bk.name, isa, err)
						}
					}
					d := want.DiffCount(dst, tolerance(bk.name, isa))
					r.tr.end(cs)
					r.check(d == 0, "burst frame %d %s/%v: %d pixels differ from scalar", fi, bk.name, isa, d)
				}
			}
			r.tr.end(sp)
			opMS[isa.String()] = append(opMS[isa.String()], ms(op))
			isaTime[isa] += op
			isaMpx[isa] += px * float64(len(burstKernels))
		}
		r.tr.end(root)
	}

	// Fused execution must be byte-identical to staged: the scalar fused
	// outputs of the last frame (which every SIMD output matched) against
	// a staged scalar run.
	staged := cv.NewOps(cv.ISAScalar, nil)
	staged.SetParallel(cv.ParallelConfig{Workers: 1})
	last := &frames[(sweeps-1)%burstFrames]
	for k, bk := range burstKernels {
		if bk.name != "canny" && bk.name != "edges" {
			continue
		}
		sp := r.tr.begin(0, "staged", "check.staged."+bk.name)
		err := bk.run(staged, last, work[k])
		r.tr.end(sp)
		if err != nil {
			return oc, fmt.Errorf("staged %s: %w", bk.name, err)
		}
		r.check(ref[k].EqualTo(work[k]), "burst: fused %s differs from staged", bk.name)
	}

	var total time.Duration
	var mpx float64
	for _, isa := range burstISAs {
		total += isaTime[isa]
		mpx += isaMpx[isa]
		r.reportf("burst %-6v %8.3f Mpx/s wall (%d frames)", isa, isaMpx[isa]/isaTime[isa].Seconds(), sweeps)
	}
	oc.mpxPerS = mpx / total.Seconds()
	oc.latMS = classMedianGeomean(opMS, math.Inf(1))
	var sweepMS float64
	oc.opCPUMS, sweepMS = classCosts(opCPUMS)
	oc.mpxPerCPUS = px * float64(len(opCPUMS)) / (sweepMS / 1e3)
	oc.opCPUMedianMS = classMedianGeomean(opCPUMS, math.Inf(1))
	oc.samples = sweeps * len(opCPUMS)
	oc.params["sweeps"] = sweeps
	return oc, nil
}
