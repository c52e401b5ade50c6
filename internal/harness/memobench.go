package harness

import (
	"context"
	"fmt"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/memo"
)

// This file measures the result cache against direct execution: how much a
// verified cache hit (checksum the stored plane, copy it out) saves over
// recomputing the kernel on the same input. cmd/simdbench -memo renders
// these numbers per benchmark, and the acceptance test pins the 5 Mpx
// speedup floor.

// MemoBenchResult is one benchmark's hit-versus-compute comparison.
type MemoBenchResult struct {
	Bench string
	Res   image.Resolution
	// ColdSeconds is the best-of-N direct kernel execution time; HitSeconds
	// is the best-of-N verified cache hit. Best-of-N because both paths are
	// deterministic — variance is scheduler noise, and the minimum is the
	// least-perturbed observation.
	ColdSeconds float64
	HitSeconds  float64
	Speedup     float64 // ColdSeconds / HitSeconds
	// Identical reports whether the cache-served plane was byte-identical
	// to a freshly computed one. Anything but true is a cache defect.
	Identical bool
}

// RunMemoBench times bench on the NEON path at res, cold versus cached.
// The cache is private to the call, so the measurement is not perturbed by
// (and does not perturb) any other cache.
func RunMemoBench(bench string, res image.Resolution) (MemoBenchResult, error) {
	r := MemoBenchResult{Bench: bench, Res: res}
	if err := validateResolution(res); err != nil {
		return r, err
	}
	c, err := benchCall(bench)
	if err != nil {
		return r, err
	}
	src := c.Kernel.Input(res, 1)
	o := cv.NewOps(cv.ISANEON, nil)

	ctx := context.Background()
	computed := newDst(c, res)
	const coldRuns = 3
	for i := 0; i < coldRuns; i++ {
		start := time.Now()
		if err := c.Run(ctx, o, src, computed); err != nil {
			return r, fmt.Errorf("harness: memo bench %s compute: %w", bench, err)
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < r.ColdSeconds {
			r.ColdSeconds = sec
		}
	}

	// One shard: the cache holds a single entry, and a sharded budget split
	// could otherwise leave every shard too small for one large plane.
	cache := memo.New(memo.Config{MaxBytes: 256 << 20, Shards: 1})
	key := c.MemoKey(cv.ISANEON, cv.FuseConfig{}, src)
	dst := newDst(c, res)
	compute := func(ctx context.Context) error { return c.Run(ctx, o, src, dst) }
	if _, err := cache.Do(ctx, key, dst, compute); err != nil {
		return r, fmt.Errorf("harness: memo bench %s populate: %w", bench, err)
	}

	const hitRuns = 10
	for i := 0; i < hitRuns; i++ {
		start := time.Now()
		outcome, err := cache.Do(ctx, key, dst, compute)
		if err != nil {
			return r, fmt.Errorf("harness: memo bench %s hit: %w", bench, err)
		}
		if outcome != memo.Hit {
			return r, fmt.Errorf("harness: memo bench %s: expected a hit, got %v", bench, outcome)
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < r.HitSeconds {
			r.HitSeconds = sec
		}
	}
	if r.HitSeconds > 0 {
		r.Speedup = r.ColdSeconds / r.HitSeconds
	}
	r.Identical = computed.DiffCount(dst, 0) == 0
	return r, nil
}
