package cv

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/resilience"
)

// testClock is a settable time source for deterministic breaker cooldowns.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// breakerOps builds a guarded NEON Ops wired to a fresh breaker set with a
// manual clock: MinSamples 2 at rate 0.5 means two fallbacks open the
// breaker.
func breakerOps(clk *testClock) (*Ops, *resilience.BreakerSet) {
	set := resilience.NewBreakerSet(resilience.BreakerConfig{
		Window: 8, MinSamples: 2, FailureRate: 0.5,
		OpenFor: time.Second, Clock: clk.Now,
	}, nil)
	g := NewOps(ISANEON, nil)
	g.SetGuardPolicy(GuardPolicy{SampleRows: 48, MaxRetries: 0})
	g.SetBreakers(set)
	return g, set
}

// TestBreakerOpensAndServesScalar: sustained guard fallbacks must open the
// kernel's breaker, after which calls run the scalar path transparently —
// correct output, no referee, no new fault records — while the user's
// UseOptimized switch stays on.
func TestBreakerOpensAndServesScalar(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 11)
	ref := NewOps(ISANEON, nil)
	ref.SetUseOptimized(false)
	want := image.NewMat(64, 48, image.U8)
	if err := ref.GaussianBlur(src, want); err != nil {
		t.Fatal(err)
	}

	clk := &testClock{t: time.Unix(0, 0)}
	g, set := breakerOps(clk)
	g.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})
	dst := image.NewMat(64, 48, image.U8)
	for i := 0; i < 2; i++ {
		if err := g.GaussianBlur(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	if st := set.State("GaussianBlur", "neon"); st != resilience.StateOpen {
		t.Fatalf("after 2 fallbacks breaker = %v, want open", st)
	}

	// Open breaker: the SIMD path (and its injector) must be bypassed.
	before := len(g.Faults())
	if err := g.GaussianBlur(src, dst); err != nil {
		t.Fatal(err)
	}
	if !want.EqualTo(dst) {
		t.Fatalf("open-breaker output differs from scalar in %d pixels", want.DiffCount(dst, 0))
	}
	if len(g.Faults()) != before {
		t.Fatalf("open-breaker call recorded faults: %v", g.Faults()[before:])
	}
	if !g.UseOptimized() {
		t.Fatal("breaker demotion must not trip the useOptimized latch")
	}
}

// TestBreakerHalfOpenProbeCloses: once the faulty unit recovers, the
// half-open probe after the cooldown must re-arm the SIMD path.
func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 12)
	clk := &testClock{t: time.Unix(0, 0)}
	g, set := breakerOps(clk)
	g.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})
	dst := image.NewMat(64, 48, image.U8)
	for i := 0; i < 2; i++ {
		if err := g.GaussianBlur(src, dst); err != nil {
			t.Fatal(err)
		}
	}

	g.SetFaultInjector(nil) // the unit recovers
	clk.Advance(time.Second)
	if err := g.GaussianBlur(src, dst); err != nil {
		t.Fatal(err)
	}
	if st := set.State("GaussianBlur", "neon"); st != resilience.StateClosed {
		t.Fatalf("clean probe left breaker %v, want closed", st)
	}

	// Closed again: a clean call must use SIMD and stay closed.
	plain := NewOps(ISANEON, nil)
	want := image.NewMat(64, 48, image.U8)
	if err := plain.GaussianBlur(src, want); err != nil {
		t.Fatal(err)
	}
	if err := g.GaussianBlur(src, dst); err != nil {
		t.Fatal(err)
	}
	if !want.EqualTo(dst) {
		t.Fatal("re-armed breaker should serve the SIMD output")
	}
}

// TestBreakerStuckOpenTripsKillSwitch: the breaker's stuck-open latch is
// the only kill switch. When the re-arm budget is spent the breaker latches
// stuck-open, and from then on every call serves the scalar referee's bytes
// without touching the SIMD unit, while the user's useOptimized switch
// stays on and no new fault is recorded.
func TestBreakerStuckOpenTripsKillSwitch(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 13)
	ref := NewOps(ISANEON, nil)
	ref.SetUseOptimized(false)
	want := image.NewMat(64, 48, image.U8)
	if err := ref.GaussianBlur(src, want); err != nil {
		t.Fatal(err)
	}

	clk := &testClock{t: time.Unix(0, 0)}
	set := resilience.NewBreakerSet(resilience.BreakerConfig{
		Window: 8, MinSamples: 2, FailureRate: 0.5,
		OpenFor: time.Second, GiveUpAfter: 1, Clock: clk.Now,
	}, nil)
	g := NewOps(ISANEON, nil)
	g.SetGuardPolicy(GuardPolicy{SampleRows: 48, MaxRetries: 0})
	g.SetBreakers(set)
	corr := &corruptor{site: faults.SiteALU, remaining: -1}
	g.SetFaultInjector(corr)
	dst := image.NewMat(64, 48, image.U8)
	for i := 0; i < 2; i++ { // open #1
		if err := g.GaussianBlur(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	if err := g.GaussianBlur(src, dst); err != nil { // failed probe: open #2, latched
		t.Fatal(err)
	}
	if st := set.State("GaussianBlur", "neon"); st != resilience.StateStuckOpen {
		t.Fatalf("breaker = %v, want stuck-open", st)
	}

	seen, faultsBefore := corr.seen, len(g.Faults())
	for i := 0; i < 3; i++ {
		clk.Advance(time.Hour) // no cooldown re-arms a stuck-open breaker
		dst := image.NewMat(64, 48, image.U8)
		if err := g.GaussianBlur(src, dst); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(dst) {
			t.Fatalf("call %d after stuck-open differs from scalar in %d pixels", i, want.DiffCount(dst, 0))
		}
	}
	if corr.seen != seen {
		t.Fatalf("injector saw %d opportunities after stuck-open, want 0", corr.seen-seen)
	}
	if !g.UseOptimized() {
		t.Fatal("stuck-open breaker must not flip the useOptimized switch")
	}
	if len(g.Faults()) != faultsBefore {
		t.Fatalf("stuck-open calls recorded faults: %v", g.Faults()[faultsBefore:])
	}
}

// stepCtx is a context whose Err() trips after a fixed number of polls,
// giving deterministic mid-kernel cancellation regardless of wall time.
type stepCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *stepCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left--
	if c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestCtxCancelMidKernel: cancellation partway through the row loops must
// surface as a typed DeadlineError with partial-progress accounting, and
// the Ops must be reusable afterwards.
func TestCtxCancelMidKernel(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 14)
	for _, isa := range []ISA{ISAScalar, ISANEON, ISASSE2} {
		o := NewOps(isa, nil)
		dst := image.NewMat(64, 48, image.U8)
		ctx := &stepCtx{Context: context.Background(), left: 11}
		err := GaussianBlur.Run(ctx, o, src, dst, Params{})
		var de *resilience.DeadlineError
		if !errors.As(err, &de) {
			t.Fatalf("%v: err = %v, want *resilience.DeadlineError", isa, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: DeadlineError must unwrap to context.Canceled", isa)
		}
		if de.Unit != "rows" || de.Total != 2*48 {
			t.Errorf("%v: accounting = %d/%d %s, want total %d rows", isa, de.Completed, de.Total, de.Unit, 2*48)
		}
		if de.Completed <= 0 || de.Completed >= de.Total {
			t.Errorf("%v: Completed = %d, want mid-kernel (0 < n < %d)", isa, de.Completed, de.Total)
		}

		// The unwind must leave the Ops clean for the next call.
		if err := GaussianBlur.Run(context.Background(), o, src, dst, Params{}); err != nil {
			t.Fatalf("%v: Ops unusable after cancellation: %v", isa, err)
		}
	}
}

// TestCtxCancelNestedKernel: DetectEdges nests two Sobel filters; the row
// accounting must span the whole composite call.
func TestCtxCancelNestedKernel(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 15)
	o := NewOps(ISASSE2, nil)
	dst := image.NewMat(64, 48, image.U8)
	ctx := &stepCtx{Context: context.Background(), left: 3 * 48} // into the second Sobel
	err := DetectEdges.Run(ctx, o, src, dst, Params{80})
	var de *resilience.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *resilience.DeadlineError", err)
	}
	if de.Op != "cv.DetectEdges" || de.Total != 4*48 {
		t.Errorf("accounting op=%s total=%d, want cv.DetectEdges / %d", de.Op, de.Total, 4*48)
	}
	if de.Completed < 2*48 {
		t.Errorf("Completed = %d rows; cancellation should land inside the second Sobel", de.Completed)
	}
}

// TestCtxAlreadyExpired: a context that is already done must stop the call
// before any row is produced.
func TestCtxAlreadyExpired(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 16)
	o := NewOps(ISANEON, nil)
	dst := image.NewMat(64, 48, image.U8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Threshold.Run(ctx, o, src, dst, Params{100, 255, int(ThreshTrunc)})
	var de *resilience.DeadlineError
	if !errors.As(err, &de) || de.Completed != 0 {
		t.Fatalf("err = %v, want zero-progress DeadlineError", err)
	}
}

// TestCancelledProbeIsReleased: a half-open probe whose call is cancelled
// before the guard reaches a verdict must be handed back to the budget, or
// the breaker could never close again.
func TestCancelledProbeIsReleased(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 17)
	clk := &testClock{t: time.Unix(0, 0)}
	g, set := breakerOps(clk)
	g.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})
	dst := image.NewMat(64, 48, image.U8)
	for i := 0; i < 2; i++ {
		if err := g.GaussianBlur(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	g.SetFaultInjector(nil)
	clk.Advance(time.Second)

	// This probe is admitted, then cancelled mid-run: no verdict.
	ctx := &stepCtx{Context: context.Background(), left: 11}
	if err := GaussianBlur.Run(ctx, g, src, dst, Params{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if st := set.State("GaussianBlur", "neon"); st != resilience.StateHalfOpen {
		t.Fatalf("breaker = %v, want still half-open", st)
	}

	// The budget must be whole again: a clean probe closes the breaker.
	if err := g.GaussianBlur(src, dst); err != nil {
		t.Fatal(err)
	}
	if st := set.State("GaussianBlur", "neon"); st != resilience.StateClosed {
		t.Fatalf("breaker = %v, want closed — the cancelled probe leaked", st)
	}
}
