package cv

import (
	"errors"
	"fmt"

	"simdstudy/internal/obs"
	"simdstudy/internal/super"
	"simdstudy/internal/trace"
)

// This file wires the kernel library into the observability layer: every
// public kernel entry point opens an obs.Span (nested under the enclosing
// kernel for composite pipelines like DetectEdges -> SobelFilter, or under
// a harness-provided parent for grid cells and campaign images), and the
// outermost kernel of each call tree folds its dynamic instruction-class
// deltas into the registry's counter families:
//
//	simd_instructions_total{isa,class}  <-> the paper's Section V
//	    per-class dynamic instruction counts
//	simd_bytes_total{isa,dir}           <-> bytes moved by the load/store
//	    classes, the input to the memory-traffic model
//	kernel_runs_total{kernel,isa}
//	kernel_wall_seconds{kernel,isa}     (histogram)
//
// Guard counters and events are recorded in guard.go.

// SetObserver attaches an observability registry to the Ops and both
// emulation units; nil detaches. Kernel spans, instruction-class counters
// and guard action metrics report there.
func (o *Ops) SetObserver(reg *obs.Registry) {
	o.Obs = reg
	o.n.Obs = reg
	o.s.Obs = reg
}

// Observer returns the attached registry, or nil.
func (o *Ops) Observer() *obs.Registry { return o.Obs }

// SetSpanParent nests subsequently started kernel spans under sp. The
// harness points this at its grid-cell and campaign-image spans so a
// whole run renders as cells -> kernels -> guard actions in the Chrome
// trace. A nil sp restores root spans.
func (o *Ops) SetSpanParent(sp *obs.Span) { o.obsParent = sp }

// kernelFrame tracks one in-flight kernel entry point's span and the
// trace snapshot its instruction delta is computed against.
type kernelFrame struct {
	sp      *obs.Span
	classes [trace.NumClasses]uint64
	loadB   uint64
	storeB  uint64
}

// curSpan returns the innermost open kernel span, or the external parent.
func (o *Ops) curSpan() *obs.Span {
	if n := len(o.frames); n > 0 {
		return o.frames[n-1].sp
	}
	return o.obsParent
}

// beginKernel opens a span for a public kernel entry point and snapshots
// the trace counters. Returns nil (and records nothing) when no registry
// is attached. It also counts call-tree depth and, at the outermost entry
// of a guarded Ops with a breaker set attached, asks the kernel's breaker
// whether the SIMD path may run — runs denied there fall through to the
// scalar path via UseOptimized without touching the useOptimized switch.
func (o *Ops) beginKernel(name string) *obs.Span {
	if o.instrumentFree() {
		// Fast path: without a breaker, registry, supervisor or watchdog the
		// depth/frame state is never consulted, and skipping it keeps a
		// plain Ops free of unsynchronized writes — the property that makes
		// one Ops shareable across goroutines.
		return nil
	}
	o.depth++
	if o.depth == 1 {
		o.curKernel = name
		if o.sup != nil && o.sup.Quarantined(name, o.isa.String()) {
			// A quarantined pair runs scalar and serial: the supervisor has
			// decided this kernel's SIMD bands are poisonous, so neither the
			// breaker (it is stuck-open anyway) nor the band scheduler is
			// consulted.
			o.denySIMD = true
			o.serialOnly = true
		} else if o.brk != nil && (o.guarded || o.aud != nil) && o.useOptimized && o.isa != ISAScalar {
			// Only consult the breaker when the SIMD path is actually
			// eligible AND something can produce a verdict (the guard referee
			// or a sampled audit); in half-open state Allow consumes a probe
			// that must be resolved by a verdict, so asking on behalf of a
			// call that would run scalar anyway would leak probes. An
			// admitted call whose audit sampling skips resolves the probe via
			// endKernel's Release, leaving the half-open budget intact.
			if o.brk.Allow(name, o.isa.String()) {
				o.brkPending = name
			} else {
				o.denySIMD = true
			}
		}
	}
	if o.Obs == nil {
		return nil
	}
	isa := obs.L("isa", o.isa.String())
	var sp *obs.Span
	if parent := o.curSpan(); parent != nil {
		sp = parent.Child("kernel."+name, isa)
	} else {
		sp = o.Obs.StartSpan("kernel."+name, isa)
	}
	if o.traceID != "" {
		sp.SetAttr("trace_id", o.traceID)
	}
	o.Obs.Counter("kernel_runs_total", obs.L("kernel", name), isa).Inc()
	f := kernelFrame{sp: sp}
	if o.T != nil {
		f.classes = o.T.Classes()
		f.loadB = o.T.BytesLoaded()
		f.storeB = o.T.BytesStored()
	}
	o.frames = append(o.frames, f)
	return sp
}

// endKernel closes the span opened by beginKernel, attributing the
// instruction delta to it; the outermost kernel also folds the per-class
// deltas into the registry counters (inner kernels skip that so composite
// pipelines are not double counted).
func (o *Ops) endKernel(name string, err error) {
	if o.instrumentFree() {
		return
	}
	if o.depth > 0 {
		o.depth--
	}
	if o.depth == 0 {
		o.denySIMD = false
		o.serialOnly = false
		o.curKernel = ""
		if o.brkPending != "" {
			// The call ended without a guard verdict (validation error or
			// cancellation unwind): hand any half-open probe back so the
			// breaker cannot wedge with its budget consumed.
			o.brk.Release(o.brkPending, o.isa.String())
			o.brkPending = ""
		}
	}
	if o.Obs == nil || len(o.frames) == 0 {
		return
	}
	f := o.frames[len(o.frames)-1]
	o.frames = o.frames[:len(o.frames)-1]
	isa := obs.L("isa", o.isa.String())
	var total uint64
	if o.T != nil {
		now := o.T.Classes()
		for c := 0; c < trace.NumClasses; c++ {
			d := now[c] - f.classes[c]
			total += d
			if d > 0 && len(o.frames) == 0 {
				o.Obs.Counter("simd_instructions_total",
					obs.L("class", trace.Class(c).String()), isa).Add(d)
			}
		}
		if len(o.frames) == 0 {
			if d := o.T.BytesLoaded() - f.loadB; d > 0 {
				o.Obs.Counter("simd_bytes_total", obs.L("dir", "load"), isa).Add(d)
			}
			if d := o.T.BytesStored() - f.storeB; d > 0 {
				o.Obs.Counter("simd_bytes_total", obs.L("dir", "store"), isa).Add(d)
			}
		}
	}
	f.sp.AddInstr(total)
	if err != nil {
		f.sp.SetAttr("error", err.Error())
	}
	dur := f.sp.End()
	h := o.Obs.Histogram("kernel_wall_seconds", nil, obs.L("kernel", name), isa)
	if o.traceID != "" {
		// The wall-clock observation carries the request's trace ID as an
		// OpenMetrics exemplar: a bad latency bucket points straight at a
		// request whose span tree explains it.
		h.ObserveExemplar(dur.Seconds(), o.traceID, o.Obs.Now())
	} else {
		h.Observe(dur.Seconds())
	}
}

// instrumentFree reports that no per-call state (depth, frames, breaker,
// supervision) needs maintaining for this Ops; begin/endKernel are no-ops.
func (o *Ops) instrumentFree() bool {
	return o.brk == nil && o.Obs == nil && o.sup == nil && o.wd == nil
}

// endKernelP is the deferred epilogue of every public kernel entry point.
// On a clean return it behaves as endKernel; on an unwind it applies the
// supervision policy:
//
//   - a cancellation unwind (ctxCanceled) passes through untouched for
//     runCtx to convert, exactly as before;
//   - a stalled parallel section (stallUnwind, raised by the dispatcher in
//     par.go when the watchdog cancelled a pass) is converted into the entry
//     point's error return — a typed *super.StallError — and, at the
//     outermost entry, recorded with the breaker as a failure so repeated
//     stalls demote the pair to scalar like repeated guard fallbacks;
//   - any other panic is recorded with the supervisor at the outermost
//     entry (quarantining pairs that exceed the policy and latching their
//     breaker stuck-open) and then resumes unwinding. In every unwind case
//     endKernel still runs, so spans close and an admitted-but-unresolved
//     breaker probe is always Released — a panicking probe can never leak
//     the half-open budget.
func (o *Ops) endKernelP(name string, errp *error) {
	r := recover()
	if r == nil {
		if o.depth == 1 && errp != nil && *errp != nil {
			var se *super.StallError
			if errors.As(*errp, &se) {
				// A nested kernel stalled and surfaced it as an error; the
				// verdict belongs to this call tree's breaker entry.
				o.recordBreaker(name, false)
			}
		}
		var err error
		if errp != nil {
			err = *errp
		}
		o.endKernel(name, err)
		return
	}
	if _, ok := r.(ctxCanceled); ok {
		o.endKernel(name, nil)
		panic(r)
	}
	if su, ok := r.(stallUnwind); ok {
		if o.depth == 1 {
			o.recordBreaker(name, false)
		}
		o.endKernel(name, su.err)
		*errp = su.err
		return
	}
	if o.depth == 1 && o.sup != nil {
		if o.sup.RecordPanic(name, o.isa.String(), r) && o.brk != nil {
			o.brk.ForceStuckOpen(name, o.isa.String())
		}
	}
	o.endKernel(name, fmt.Errorf("panic: %v", r))
	panic(r)
}
