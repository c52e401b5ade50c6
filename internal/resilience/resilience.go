// Package resilience is the runtime policy layer that turns the cv guard's
// one-shot fault outcomes into long-horizon robustness: per-(kernel, ISA)
// circuit breakers that demote a flaky SIMD unit to scalar code before users
// see retries and re-arm it with half-open probes, and a typed deadline
// error carrying partial-progress accounting for cancelled work.
//
// The paper's headline speedups only matter if the hand-SIMD fast path can
// be trusted under sustained use. Boivin & Legaux show intrinsic speedups
// are configuration-fragile, and the SIMD-everywhere work shows portability
// layers need a safe demotion story; this package is the runtime answer to
// "when should we stop trusting the SIMD path?" — a question the one-shot
// guard in internal/cv cannot ask, because it only sees single calls.
//
// Everything here is dependency-free (stdlib + internal/obs), safe for
// concurrent use, and deterministic under an injected clock, so
// the serving front-end (cmd/simdserved), the harness and the tests all
// share one policy implementation.
package resilience

import (
	"fmt"
)

// DeadlineError reports work cancelled by a context deadline or explicit
// cancellation, with partial-progress accounting so callers (and the
// serving layer's shed responses) can say how far the work got.
type DeadlineError struct {
	// Op names the cancelled operation, e.g. "cv.GaussianBlur" or
	// "harness.grid.GauBlu".
	Op string
	// Cause is the context error (context.Canceled or
	// context.DeadlineExceeded); Unwrap exposes it so errors.Is works.
	Cause error
	// Completed counts the units of work finished before cancellation.
	Completed int
	// Total is the planned unit count, 0 when unknown.
	Total int
	// Unit names what was counted: "rows", "cells", "images", "trips".
	Unit string
}

// Error implements error.
func (e *DeadlineError) Error() string {
	if e.Total > 0 {
		return fmt.Sprintf("resilience: %s: %v after %d/%d %s",
			e.Op, e.Cause, e.Completed, e.Total, e.Unit)
	}
	return fmt.Sprintf("resilience: %s: %v after %d %s",
		e.Op, e.Cause, e.Completed, e.Unit)
}

// Unwrap ties the error to its context cause, so
// errors.Is(err, context.DeadlineExceeded) keeps working through the wrap.
func (e *DeadlineError) Unwrap() error { return e.Cause }
