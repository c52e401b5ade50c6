package cv

import (
	"fmt"
	"time"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/obs"
	"simdstudy/internal/par"
)

// This file is the scalar referee every hand-SIMD kernel call routes
// through: guarded mode and the integrity layer's sampled audits share one
// path, guardedRun. Banding happens inside the simd closure, so serial and
// pooled band paths are refereed alike.
//
// The referee is a fresh scalar Ops configured for the *same* ISA, because
// rounding conventions are per-platform (cvRound is half-to-even on SSE2 and
// half-away-from-zero on ARM); comparing against the other family's scalar
// code would flag legitimate divergence as faults.
//
// A call is refereed when guarded mode is on or when the attached Auditor
// samples it (one draw per outermost SIMD call). Then:
//
//   - Guarded: sampled rows are spot-checked against the referee; on
//     divergence the SIMD path is retried up to MaxRetries times, and a
//     divergence that survives is resolved by substituting the referee's
//     plane (fallback). The guard's outcome is the breaker verdict.
//   - Audited: the first SIMD output is compared in full; a divergence is a
//     typed CorruptionError reported to the Auditor (and, unguarded, the
//     breaker verdict). Whatever plane the call returns is checked in full
//     and repaired from the reference, so a detected-corrupt plane never
//     reaches the caller.
//
// Terminal demotion belongs to the breaker alone: a stuck-open breaker
// refuses the SIMD path at dispatch (beginKernel). useOptimized is only the
// user's setUseOptimized switch. An unsampled call costs one atomic load
// (rate scaled to zero) or one mutexed xorshift draw — no allocation, which
// the Host* benchmark gate pins down.

// FaultAction classifies how a guarded kernel resolved a divergence.
type FaultAction int

// Guarded-mode outcomes, in escalation order.
const (
	// ActionDetected: the spot-check saw the SIMD output diverge from the
	// scalar referee beyond tolerance.
	ActionDetected FaultAction = iota
	// ActionRetryRecovered: re-running the SIMD path produced output that
	// matches the referee, so the fault was transient.
	ActionRetryRecovered
	// ActionFallback: retries exhausted; the scalar referee's output was
	// substituted for the SIMD output.
	ActionFallback
)

var actionNames = [...]string{"detected", "retry-recovered", "fallback"}

// String names the action.
func (a FaultAction) String() string {
	if a < 0 || int(a) >= len(actionNames) {
		return fmt.Sprintf("action(%d)", int(a))
	}
	return actionNames[a]
}

// KernelFault is a typed record of one guarded-mode intervention.
type KernelFault struct {
	Kernel string      // entry point name, e.g. "GaussianBlur"
	ISA    ISA         // the SIMD family that diverged
	Action FaultAction // how the divergence was resolved
	Rows   []int       // sampled rows that diverged at first detection
	Diffs  int         // differing pixels across those rows
}

// String renders the fault for logs.
func (f KernelFault) String() string {
	return fmt.Sprintf("%s/%v: %v (%d diff pixels in rows %v)",
		f.Kernel, f.ISA, f.Action, f.Diffs, f.Rows)
}

// GuardPolicy tunes the guarded dispatch.
type GuardPolicy struct {
	// SampleRows is how many rows the spot-check compares per image
	// (clamped to the image height). Zero means the default of 8.
	SampleRows int
	// MaxRetries is how many times the SIMD path is re-run after a
	// detection before falling back. Negative means zero retries.
	MaxRetries int
}

// DefaultGuardPolicy returns the policy used when none is set.
func DefaultGuardPolicy() GuardPolicy {
	return GuardPolicy{SampleRows: 8, MaxRetries: 1}
}

func (p GuardPolicy) normalized() GuardPolicy {
	if p.SampleRows <= 0 {
		p.SampleRows = 8
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	return p
}

// SetGuarded toggles guarded mode. While on, every SIMD kernel entry point
// cross-checks its output against a scalar referee before returning.
func (o *Ops) SetGuarded(on bool) {
	o.guarded = on
	if on && o.policy == (GuardPolicy{}) {
		o.policy = DefaultGuardPolicy()
	}
}

// Guarded reports whether guarded mode is on.
func (o *Ops) Guarded() bool { return o.guarded }

// SetGuardPolicy installs a policy and enables guarded mode.
func (o *Ops) SetGuardPolicy(p GuardPolicy) {
	o.policy = p.normalized()
	o.guarded = true
}

// SetAuditor attaches (or, with nil, detaches) an integrity auditor
// sampling this Ops' SIMD kernel calls for scalar re-execution. The
// auditor may be shared across Ops (the serving front-end shares one per
// server); outcomes report to the Ops' observer registry and the
// auditor's scoreboard.
func (o *Ops) SetAuditor(a *integrity.Auditor) { o.aud = a }

// Auditor returns the attached auditor, or nil.
func (o *Ops) Auditor() *integrity.Auditor { return o.aud }

// SetFaultInjector attaches (or, with nil, detaches) a fault injector to the
// underlying NEON and SSE2 emulation units. The injector fires at every
// instrumented intrinsic; the scalar paths and the guard referee are never
// subject to injection.
func (o *Ops) SetFaultInjector(inj faults.Injector) {
	o.injector = inj
	o.n.F = inj
	o.s.F = inj
}

// FaultInjector returns the attached injector, or nil.
func (o *Ops) FaultInjector() faults.Injector { return o.injector }

// Faults returns the guarded-mode interventions recorded so far.
func (o *Ops) Faults() []KernelFault { return o.kernelFaults }

// ResetFaults clears the recorded interventions.
func (o *Ops) ResetFaults() { o.kernelFaults = nil }

func (o *Ops) recordFault(f KernelFault) {
	o.kernelFaults = append(o.kernelFaults, f)
	if o.T != nil {
		o.T.Event("fault." + f.Action.String())
	}
	if o.Obs != nil {
		o.Obs.Counter("guard_actions_total",
			obs.L("kernel", f.Kernel), obs.L("isa", f.ISA.String()),
			obs.L("action", f.Action.String())).Inc()
		fields := map[string]any{
			"kernel": f.Kernel,
			"isa":    f.ISA.String(),
			"action": f.Action.String(),
		}
		if len(f.Rows) > 0 {
			fields["rows"] = f.Rows
			fields["diffs"] = f.Diffs
		}
		o.Obs.Emit("guard.fault", fields)
	}
}

// sampleRows picks policy.SampleRows distinct rows of an h-row image
// deterministically. The first and last rows are always included: edge
// handling is where hand kernels historically diverge.
func (o *Ops) sampleRows(h int) []int {
	n := o.policy.SampleRows
	if n >= h {
		rows := make([]int, h)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	seen := make(map[int]bool, n)
	rows := make([]int, 0, n)
	add := func(r int) {
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	add(0)
	if n > 1 {
		add(h - 1)
	}
	s := uint64(1)
	for len(rows) < n {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		add(int((s * 0x2545F4914F6CDD1D) % uint64(h)))
	}
	return rows
}

// diffRegion counts elements in rows [r0, r1) where got and want differ by
// more than tol, returning the plane-linear index of the first divergence
// (-1 when none) alongside the count. Every kernel writes a U8 or S16
// plane.
func diffRegion(got, want *image.Mat, r0, r1, tol int) (first, diffs int) {
	first = -1
	lo, hi := r0*got.Width, r1*got.Width
	note := func(i, a, b int) {
		if a-b > tol || b-a > tol {
			if first < 0 {
				first = i
			}
			diffs++
		}
	}
	switch got.Kind {
	case image.U8:
		for i := lo; i < hi; i++ {
			note(i, int(got.U8Pix[i]), int(want.U8Pix[i]))
		}
	case image.S16:
		for i := lo; i < hi; i++ {
			note(i, int(got.S16Pix[i]), int(want.S16Pix[i]))
		}
	default:
		panic(fmt.Sprintf("cv: referee cannot compare %v planes", got.Kind))
	}
	return first, diffs
}

// corruption compares rows [r0, r1) of got against want, returning nil
// when they agree within tol or a CorruptionError locating the divergence.
func (o *Ops) corruption(kernel string, got, want *image.Mat, r0, r1, tol int) *integrity.CorruptionError {
	first, diffs := diffRegion(got, want, r0, r1, tol)
	if diffs == 0 {
		return nil
	}
	return &integrity.CorruptionError{
		Kernel: kernel, ISA: o.isa.String(),
		Region:    integrity.Region{Row0: r0, Row1: r1, Width: got.Width},
		FirstDiff: first, Diffs: diffs,
	}
}

// copyPixels overwrites dst's pixel data with src's (shapes already match).
func copyPixels(dst, src *image.Mat) {
	copy(dst.U8Pix, src.U8Pix)
	copy(dst.S16Pix, src.S16Pix)
}

// referee computes the scalar reference into a pooled w x h plane, which
// the caller returns with par.PutMat. The referee Ops has the same ISA
// (same rounding conventions), optimizations off, no trace (its
// instructions are bookkeeping, not workload), no fault injector, and no
// bound context, so a deadline never interrupts the reference mid-row.
func (o *Ops) referee(w, h int, kind image.Type, run func(ref *Ops, d *image.Mat) error) (*image.Mat, error) {
	ref := NewOps(o.isa, nil)
	ref.SetUseOptimized(false)
	want := par.GetMat(w, h, kind)
	if err := run(ref, want); err != nil {
		par.PutMat(want)
		return nil, err
	}
	return want, nil
}

// guardedRun is the refereed dispatch every SIMD kernel entry point routes
// through. simd runs the hand-optimized path into dst; rerun invokes the
// same kernel on a referee Ops so the scalar reference lands in a scratch
// Mat. tol is the per-kernel pixel tolerance (nonzero only where the SIMD
// path legitimately rounds differently from scalar code). A call that
// fails or is cancelled records no verdict.
func (o *Ops) guardedRun(kernel string, dst *image.Mat, tol int,
	simd func() error, rerun func(ref *Ops, d *image.Mat) error) error {
	if o.inGuard {
		// A nested kernel call (DetectEdges → SobelFilter) already covered
		// by the outer referee.
		return simd()
	}
	// The sampling decision is drawn up front, so the sampler stream is
	// positioned identically whether or not the guard later intervenes.
	audit := o.aud != nil && o.aud.Sample()
	if !o.guarded && !audit {
		return simd()
	}
	o.inGuard = true
	defer func() { o.inGuard = false }()

	if err := simd(); err != nil {
		return err
	}

	o.ctxCheck()
	start := time.Now()
	spName := "integrity.audit"
	if o.guarded {
		spName = "guard.referee"
	}
	sp := o.curSpan().Child(spName)
	want, err := o.referee(dst.Width, dst.Height, dst.Kind, rerun)
	if err != nil {
		sp.End()
		return fmt.Errorf("cv: %s referee: %w", kernel, err)
	}
	defer par.PutMat(want)
	var ce *integrity.CorruptionError
	if audit {
		ce = o.corruption(kernel, dst, want, 0, dst.Height, tol)
		if ce != nil {
			sp.SetAttr("mismatch", true)
		}
	}
	sp.End()
	auditDur := time.Since(start)

	ok, corrupt := ce == nil, ce != nil
	if o.guarded {
		retried, fellBack, err := o.spotCheck(kernel, dst, want, tol, simd)
		if err != nil {
			return err
		}
		ok = !fellBack
		switch {
		case fellBack:
			corrupt = false
		case retried && audit:
			// The audit verdict stands on the first output, but a retry
			// replaced that plane: check the one actually returned.
			_, d := diffRegion(dst, want, 0, dst.Height, tol)
			corrupt = d > 0
		}
	}
	if corrupt {
		// The reference is the trusted result.
		copyPixels(dst, want)
	}
	o.verdict(kernel, ok, audit, auditDur, ce)
	return nil
}

// spotCheck is the guard proper. It compares the policy's sampled rows of
// dst against the referee; on divergence it records ActionDetected and
// re-runs simd up to MaxRetries times, and a divergence that survives is
// resolved by copying the referee's plane into dst (ActionFallback).
// retried reports that simd rewrote dst after the first compare.
func (o *Ops) spotCheck(kernel string, dst, want *image.Mat, tol int, simd func() error) (retried, fellBack bool, err error) {
	rows := o.sampleRows(dst.Height)
	check := func() (bad []int, diffs int) {
		for _, r := range rows {
			if _, d := diffRegion(dst, want, r, r+1, tol); d > 0 {
				bad = append(bad, r)
				diffs += d
			}
		}
		return bad, diffs
	}
	bad, diffs := check()
	if len(bad) == 0 {
		return false, false, nil
	}
	o.recordFault(KernelFault{Kernel: kernel, ISA: o.isa, Action: ActionDetected, Rows: bad, Diffs: diffs})

	for try := 0; try < o.policy.MaxRetries; try++ {
		o.ctxCheck()
		retrySpan := o.curSpan().Child("guard.retry")
		if err := simd(); err != nil {
			retrySpan.End()
			return true, false, err
		}
		b, _ := check()
		retrySpan.End()
		if len(b) == 0 {
			o.recordFault(KernelFault{Kernel: kernel, ISA: o.isa, Action: ActionRetryRecovered})
			return true, false, nil
		}
	}

	// Degrade gracefully: the referee already computed the full scalar
	// image, so the fallback is a copy, not a recompute.
	fbSpan := o.curSpan().Child("guard.fallback")
	copyPixels(dst, want)
	o.recordFault(KernelFault{Kernel: kernel, ISA: o.isa, Action: ActionFallback})
	fbSpan.End()
	return false, true, nil
}

// verdict closes one refereed call: a sampled audit's outcome (taking dur
// to reach) goes to the auditor, then pass/fail to the kernel's breaker.
func (o *Ops) verdict(kernel string, ok, audited bool, dur time.Duration, ce *integrity.CorruptionError) {
	if audited {
		o.aud.Observe(o.Obs, kernel, o.isa.String(), dur, o.traceID, ce)
	}
	o.recordBreaker(kernel, ok)
}

// recordBreaker feeds one verdict into the kernel's breaker, when one is
// attached.
func (o *Ops) recordBreaker(kernel string, success bool) {
	if o.brk == nil {
		return
	}
	o.brkPending = ""
	o.brk.Record(kernel, o.isa.String(), success)
}
