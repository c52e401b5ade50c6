package cv

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"simdstudy/internal/image"
	"simdstudy/internal/memo"
	"simdstudy/internal/obs"
	"simdstudy/internal/resilience"
)

// This file is the kernel suite: one descriptor per Mat→Mat entry point.
// A descriptor owns what every layer needs to know about a kernel besides
// its arithmetic — name, plane kinds, destination geometry, row-pass
// budget, NEON tolerance and named integer parameters — and the one
// dispatcher below owns what every entry point shares: span and breaker
// bracketing, kind/shape/parameter checks, the fused branch and the
// guarded (or audited) run. The typed methods (o.GaussianBlur, ...) are
// thin front doors onto the dispatcher; Kernel.Run is the context-aware
// entry point. The serving front-end and the harness bind fixed parameter
// values to descriptors (Call) rather than describing kernels again.
//
// RGBToGray and GradientMagnitude stay hand-written: their sources are an
// interleaved RGB image and a pair of gradient planes, not one Mat.

// MaxParams is the most integer parameters any kernel declares.
const MaxParams = 3

// Params are a kernel's integer parameter values, in the order of its
// descriptor's Params; slots past the declared ones must be zero.
type Params [MaxParams]int

// Param names one integer parameter and its valid range.
type Param struct {
	Name     string
	Min, Max int
}

// kernelBody runs a kernel on validated planes, taking the code path
// o.path() selects.
type kernelBody func(o *Ops, src, dst *image.Mat, p Params) error

// Kernel describes one Mat→Mat kernel entry point.
type Kernel struct {
	// Name labels the kernel's spans, metrics, breakers, watchdog
	// sections, fault records and memo keys.
	Name string
	// Src and Dst are the plane kinds. HalfDst makes the destination
	// (w/2)x(h/2) instead of the source's shape.
	Src, Dst image.Type
	HalfDst  bool
	// Passes is how many row passes the kernel makes per destination row:
	// Passes x dst height is the row budget a DeadlineError reports.
	Passes int
	// Params declares the integer parameters, in Params order.
	Params []Param

	neonTol int                  // NEON pixel slack against the ARM scalar referee
	check   func(p Params) error // constraints beyond the per-parameter ranges
	body    kernelBody           // staged execution, every ISA
	fused   kernelBody           // cache-blocked sweep under SetFuse; nil when none
	// stagesGuarded: the staged body's SIMD stages are guarded entry points
	// of their own (Canny's Sobel passes), so no whole-call guard wraps it.
	stagesGuarded bool
}

// The kernel suite.
var (
	ConvertF32ToS16 = &Kernel{Name: "ConvertF32ToS16", Src: image.F32, Dst: image.S16, Passes: 1,
		// The NEON vector path truncates (vcvt) while the ARM scalar
		// referee rounds half away from zero, a documented divergence of
		// the real port: one count of slack.
		neonTol: 1, body: convertBody}
	Threshold = &Kernel{Name: "Threshold", Src: image.U8, Dst: image.U8, Passes: 1,
		Params: []Param{{"thresh", 0, math.MaxUint8}, {"maxval", 0, math.MaxUint8},
			{"type", int(ThreshBinary), int(ThreshToZeroInv)}},
		body: thresholdBody}
	GaussianBlur = &Kernel{Name: "GaussianBlur", Src: image.U8, Dst: image.U8, Passes: 2,
		body: gaussianBody}
	SobelFilter = &Kernel{Name: "SobelFilter", Src: image.U8, Dst: image.S16, Passes: 2,
		Params: []Param{{"dx", 0, 1}, {"dy", 0, 1}}, check: sobelCheck, body: sobelBody}
	// DetectEdges runs two Sobel filters of two passes each.
	DetectEdges = &Kernel{Name: "DetectEdges", Src: image.U8, Dst: image.U8, Passes: 4,
		Params: []Param{{"thresh", math.MinInt16, math.MaxInt16}},
		body:   edgesStaged, fused: edgesFused}
	// Canny ticks four Sobel passes and the NMS pass, staged or fused.
	Canny = &Kernel{Name: "Canny", Src: image.U8, Dst: image.U8, Passes: 5,
		Params: []Param{{"low", 0, math.MaxInt16}, {"high", 0, math.MaxInt16}}, check: cannyCheck,
		body: cannyStaged, fused: cannyFused, stagesGuarded: true}
	MedianBlur3x3 = &Kernel{Name: "MedianBlur3x3", Src: image.U8, Dst: image.U8, Passes: 1,
		body: medianBody}
	ResizeHalf = &Kernel{Name: "ResizeHalf", Src: image.U8, Dst: image.U8, HalfDst: true, Passes: 1,
		body: resizeBody}
)

// Kernels lists every descriptor.
var Kernels = []*Kernel{
	ConvertF32ToS16, Threshold, GaussianBlur, SobelFilter,
	DetectEdges, Canny, MedianBlur3x3, ResizeHalf,
}

// KernelByName returns the descriptor called name, or nil.
func KernelByName(name string) *Kernel {
	for _, k := range Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Tol is the per-pixel tolerance of the kernel's isa output against the
// same-ISA scalar referee.
func (k *Kernel) Tol(isa ISA) int {
	if isa == ISANEON {
		return k.neonTol
	}
	return 0
}

// DstDims returns the destination geometry for a w x h source.
func (k *Kernel) DstDims(w, h int) (int, int) {
	if k.HalfDst {
		return w / 2, h / 2
	}
	return w, h
}

// Input synthesizes a deterministic source plane of the kernel's kind.
func (k *Kernel) Input(res image.Resolution, seed uint64) *image.Mat {
	if k.Src == image.F32 {
		return image.SyntheticF32(res, seed)
	}
	return image.Synthetic(res, seed)
}

// Encode renders parameter values as "name=value" pairs in declaration
// order: the one encoding memo keys use.
func (k *Kernel) Encode(p Params) string {
	var b []byte
	for i, q := range k.Params {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, q.Name...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(p[i]), 10)
	}
	return string(b)
}

// validate checks plane kinds, destination geometry and parameters.
func (k *Kernel) validate(src, dst *image.Mat, p Params) error {
	if src.Kind != k.Src {
		return fmt.Errorf("cv: %s src requires %v image, got %v", k.Name, k.Src, src.Kind)
	}
	if dst.Kind != k.Dst {
		return fmt.Errorf("cv: %s dst requires %v image, got %v", k.Name, k.Dst, dst.Kind)
	}
	if w, h := k.DstDims(src.Width, src.Height); dst.Width != w || dst.Height != h {
		return fmt.Errorf("cv: %s dst must be %dx%d, got %dx%d", k.Name, w, h, dst.Width, dst.Height)
	}
	if k.HalfDst && (dst.Width == 0 || dst.Height == 0) {
		return fmt.Errorf("cv: %s source %dx%d too small", k.Name, src.Width, src.Height)
	}
	for i, v := range p {
		if i >= len(k.Params) {
			if v != 0 {
				return fmt.Errorf("cv: %s takes %d parameters, got %v", k.Name, len(k.Params), p)
			}
			continue
		}
		if q := k.Params[i]; v < q.Min || v > q.Max {
			return fmt.Errorf("cv: %s %s=%d out of range [%d, %d]", k.Name, q.Name, v, q.Min, q.Max)
		}
	}
	if k.check != nil {
		return k.check(p)
	}
	return nil
}

// path is the ISA whose code runs this call: the Ops' own when SIMD is
// admitted, scalar otherwise.
func (o *Ops) path() ISA {
	if o.UseOptimized() {
		return o.isa
	}
	return ISAScalar
}

// run is the dispatcher behind every descriptor entry point. A SIMD call
// runs under the guard (or a sampled audit) with the staged body on a
// scalar referee; a fused sweep is checked against the same staged
// reference when guarded and audits itself strip by strip otherwise.
func (o *Ops) run(k *Kernel, src, dst *image.Mat, p Params) (err error) {
	o.beginKernel(k.Name)
	defer o.endKernelP(k.Name, &err)
	if err := k.validate(src, dst, p); err != nil {
		return err
	}
	simd := k.body
	if k.fused != nil && o.fuse.Enabled {
		if !o.UseOptimized() || !o.guarded {
			return k.fused(o, src, dst, p)
		}
		simd = k.fused
	} else if !o.UseOptimized() || k.stagesGuarded {
		return k.body(o, src, dst, p)
	}
	return o.guardedRun(k.Name, dst, k.Tol(o.isa),
		func() error { return simd(o, src, dst, p) },
		func(ref *Ops, d *image.Mat) error { return k.body(ref, src, d, p) })
}

// Run runs the kernel on o with deadline and cancellation checking at row
// granularity: a done ctx unwinds the row loops (see rowTick) and the call
// returns a *resilience.DeadlineError counting the rows completed out of
// Passes x dst height. A call nested inside another Run inherits the
// outer binding. The bound context's trace ID stamps the call's spans and
// latency exemplars.
func (k *Kernel) Run(ctx context.Context, o *Ops, src, dst *image.Mat, p Params) (err error) {
	if o.ctx != nil {
		return o.run(k, src, dst, p)
	}
	total := k.Passes * dst.Height
	if e := ctx.Err(); e != nil {
		return &resilience.DeadlineError{Op: "cv." + k.Name, Cause: e, Total: total, Unit: "rows"}
	}
	o.ctx, o.ctxRows = ctx, 0
	o.traceID = obs.TraceID(ctx)
	defer func() {
		rows := o.ctxRows
		o.ctx, o.ctxRows = nil, 0
		o.traceID = ""
		if r := recover(); r != nil {
			c, ok := r.(ctxCanceled)
			if !ok {
				panic(r)
			}
			err = &resilience.DeadlineError{
				Op: "cv." + k.Name, Cause: c.err, Completed: rows, Total: total, Unit: "rows",
			}
		}
	}()
	return o.run(k, src, dst, p)
}

// Call is a kernel descriptor bound to fixed parameter values: what the
// serving front-end binds to a request name and the harness to a paper
// benchmark.
type Call struct {
	Kernel *Kernel
	Params Params
}

// Run runs the bound kernel (see Kernel.Run).
func (c Call) Run(ctx context.Context, o *Ops, src, dst *image.Mat) error {
	return c.Kernel.Run(ctx, o, src, dst, c.Params)
}

// MemoKey is the content key of the call's isa result on src under the
// fusion configuration fuse. Every memoizing caller keys through it, so
// equal (kernel, parameters, fusion, input) give equal keys everywhere.
func (c Call) MemoKey(isa ISA, fuse FuseConfig, src *image.Mat) memo.Key {
	return memo.KeyFor(c.Kernel.Name, isa.String(), c.Kernel.Encode(c.Params)+","+fuse.Signature(), src)
}

// benchmarks binds the paper's benchmark names to the kernel calls they
// measure.
var benchmarks = map[string]Call{
	"ConvertFloatShort": {ConvertF32ToS16, Params{}},
	"BinThr":            {Threshold, Params{128, 255, int(ThreshTrunc)}},
	"GauBlu":            {GaussianBlur, Params{}},
	"SobFil":            {SobelFilter, Params{1, 0}},
	"EdgDet":            {DetectEdges, Params{100}},
	"Canny":             {Canny, Params{60, 200}},
}

// Benchmark returns the kernel call a paper benchmark name measures.
func Benchmark(name string) (Call, bool) {
	c, ok := benchmarks[name]
	return c, ok
}
