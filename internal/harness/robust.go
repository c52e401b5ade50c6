package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"simdstudy/internal/checkpoint"
	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/memo"
	"simdstudy/internal/obs"
	"simdstudy/internal/platform"
	"simdstudy/internal/resilience"
	"simdstudy/internal/super"
	"simdstudy/internal/timing"
	"simdstudy/internal/trace"
)

// This file is the harness's robustness layer: context-aware variants of
// RunGrid and Verify (deadlines, per-cell retry with backoff) and the fault
// campaign — run every hand-SIMD kernel under a seeded fault plan with the
// cv guard enabled and report injected vs. detected vs. masked faults.

// ErrBadResolution rejects non-positive image dimensions before any Mat is
// allocated.
var ErrBadResolution = errors.New("harness: invalid resolution")

func validateResolution(res image.Resolution) error {
	if res.Width <= 0 || res.Height <= 0 {
		return fmt.Errorf("%w: %dx%d", ErrBadResolution, res.Width, res.Height)
	}
	return nil
}

// benchCall returns the kernel call a paper benchmark measures. Verify,
// RunFaultCampaign and RunMemoBench share it, so all three exercise the
// exact same code paths.
func benchCall(bench string) (cv.Call, error) {
	c, ok := cv.Benchmark(bench)
	if !ok {
		return cv.Call{}, fmt.Errorf("harness: unknown benchmark %q", bench)
	}
	return c, nil
}

// inputs synthesizes the benchmark's n-image input burst.
func inputs(c cv.Call, res image.Resolution, n int) []*image.Mat {
	out := make([]*image.Mat, n)
	for i := range out {
		out[i] = c.Kernel.Input(res, uint64(i+1))
	}
	return out
}

// newDst allocates the benchmark's destination plane for a res source.
func newDst(c cv.Call, res image.Resolution) *image.Mat {
	w, h := c.Kernel.DstDims(res.Width, res.Height)
	return image.NewMat(w, h, c.Kernel.Dst)
}

// GridOptions tunes RunGridCtx.
type GridOptions struct {
	// Retries is how many extra attempts each grid cell gets after a
	// failure before the grid run is abandoned.
	Retries int
	// Backoff is the wait before the first retry; it doubles per attempt.
	// Zero means no wait.
	Backoff time.Duration
	// Obs, when non-nil, receives grid observability: a root span per
	// grid, one span per cell (on its own Chrome-trace track, carrying the
	// modeled seconds and cycles), attempt/retry counters and per-cell
	// modeled-seconds gauges. Each cell records into a private registry
	// that is merged in at cell completion, so concurrent cells contend
	// only at the merge.
	Obs *obs.Registry
	// Concurrency is the number of cells evaluated in flight at once.
	// Values below 2 run the grid sequentially.
	Concurrency int
	// CheckpointPath, when non-empty, journals every completed cell to this
	// file (versioned, checksummed, atomically replaced — see
	// internal/checkpoint) and replays already-journaled cells on a later
	// run with the same configuration, so a killed grid resumes bit-
	// identically instead of starting over. A corrupt journal falls back to
	// a cold start; a journal written by a different (bench, platforms,
	// sizes) configuration is a *checkpoint.MismatchError.
	CheckpointPath string
	// CheckpointHook, when non-nil, runs after every durable journal append
	// with the journal's record count. The chaos CI job and the resume
	// tests use it to interrupt a run at a deterministic cell boundary.
	CheckpointHook func(records int)
}

// testCellStart, when non-nil, is invoked at the start of every grid cell
// evaluation. Tests use it to cancel a context deterministically mid-grid;
// cells are analytic estimates that complete in microseconds, so wall-clock
// deadlines cannot land between two specific cells reliably.
var testCellStart func()

// RunGridCtx is RunGrid with a context deadline and per-cell retry with
// exponential backoff. The context is checked before every cell and while
// backing off, so a deadline cancels mid-grid instead of after the fact.
// With opt.Concurrency > 1 cells are evaluated by a bounded worker pool;
// the first cell error cancels the remaining work.
//
// When the caller's context expires mid-grid, the partially filled grid is
// returned alongside a *resilience.DeadlineError accounting for the cells
// that completed (each keeps its Metrics snapshot); callers may render what
// finished or discard it.
func RunGridCtx(ctx context.Context, bench string, platforms []platform.Platform,
	sizes []image.Resolution, opt GridOptions) (*Grid, error) {
	for _, res := range sizes {
		if err := validateResolution(res); err != nil {
			return nil, err
		}
	}
	g := &Grid{Bench: bench, Platforms: platforms, Sizes: sizes,
		Cells: make([][]Cell, len(sizes))}
	for i := range g.Cells {
		g.Cells[i] = make([]Cell, len(platforms))
	}
	gridSpan := opt.Obs.StartSpan("grid." + bench)
	defer gridSpan.End()

	// Checkpointed resume: replay journaled cells into the grid and skip
	// recomputing them; every newly completed cell is appended durably
	// before the next one may finish the run.
	var journal *checkpoint.Journal
	var done map[[2]int]bool
	replayed := 0
	if opt.CheckpointPath != "" {
		j, err := openJournal(opt.CheckpointPath, "grid",
			gridFingerprint(bench, platforms, sizes), opt.Obs)
		if err != nil {
			return nil, err
		}
		recs, ok := decodeGridJournal(j, len(sizes), len(platforms))
		if !ok {
			// Checksummed but semantically invalid (tampering past the CRCs):
			// same policy as corruption — discard and start cold.
			if opt.Obs != nil {
				opt.Obs.Emit("checkpoint.corrupt", map[string]any{
					"path": opt.CheckpointPath, "error": "grid journal records inconsistent",
				})
			}
			if j, err = checkpoint.Create(opt.CheckpointPath, "grid",
				gridFingerprint(bench, platforms, sizes)); err != nil {
				return nil, err
			}
			recs = nil
		}
		done = make(map[[2]int]bool, len(recs))
		for _, r := range recs {
			g.Cells[r.Size][r.Plat] = Cell{
				AutoSeconds: r.Auto, HandSeconds: r.Hand, Metrics: r.Metrics,
			}
			done[[2]int{r.Size, r.Plat}] = true
		}
		replayed = len(recs)
		journal = j
	}

	conc := opt.Concurrency
	if conc < 1 {
		conc = 1
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, conc)
	var (
		wg        sync.WaitGroup
		errMu     sync.Mutex
		firstErr  error
		completed atomic.Int64
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	completed.Add(int64(replayed))
	track := 1
launch:
	for si := range sizes {
		for pi := range platforms {
			track++
			if done != nil && done[[2]int{si, pi}] {
				continue
			}
			select {
			case <-cctx.Done():
				break launch
			case sem <- struct{}{}:
			}
			wg.Add(1)
			go func(si, pi, track int) {
				defer wg.Done()
				defer func() { <-sem }()
				cell, err := runCell(cctx, bench, platforms[pi], sizes[si], opt, track)
				if err != nil {
					fail(err)
					return
				}
				g.Cells[si][pi] = cell
				completed.Add(1)
				if journal != nil {
					if err := journal.Append(gridCellRecord{
						Size: si, Plat: pi,
						SizeName: sizes[si].Name, PlatName: platforms[pi].Name,
						Auto: cell.AutoSeconds, Hand: cell.HandSeconds,
						Metrics: cell.Metrics,
					}); err != nil {
						fail(fmt.Errorf("harness: grid checkpoint: %w", err))
						return
					}
					if opt.CheckpointHook != nil {
						opt.CheckpointHook(journal.Len())
					}
				}
			}(si, pi, track)
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return g, &resilience.DeadlineError{
			Op: "harness.grid." + bench, Cause: err,
			Completed: int(completed.Load()),
			Total:     len(sizes) * len(platforms),
			Unit:      "cells",
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}

// runCell evaluates one (platform, size) cell, retrying per GridOptions.
// track is the Chrome-trace timeline row the cell's span renders on.
func runCell(ctx context.Context, bench string, p platform.Platform,
	res image.Resolution, opt GridOptions, track int) (Cell, error) {
	if testCellStart != nil {
		testCellStart()
	}
	var reg *obs.Registry
	var sp *obs.Span
	if opt.Obs != nil {
		reg = obs.NewRegistry()
		sp = reg.StartSpan("cell."+bench,
			obs.L("platform", p.Name), obs.L("size", res.Name))
		sp.SetTrack(track)
	}
	lBench := obs.L("bench", bench)
	lPlat := obs.L("platform", p.Name)
	finish := func(cell Cell, err error) (Cell, error) {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		cell.Metrics = reg.Snapshot()
		opt.Obs.Merge(reg)
		return cell, err
	}

	backoff := opt.Backoff
	var lastErr error
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		if attempt > 0 {
			reg.Counter("grid_cell_retries_total", lBench, lPlat).Inc()
			if backoff > 0 {
				select {
				case <-ctx.Done():
					return finish(Cell{}, fmt.Errorf("harness: grid cell retry: %w", ctx.Err()))
				case <-time.After(backoff):
				}
				backoff *= 2
			}
		}
		reg.Counter("grid_cell_attempts_total", lBench, lPlat).Inc()
		auto, err := timing.EstimateRun(p, bench, res, timing.Auto)
		if err != nil {
			lastErr = err
			continue
		}
		hand, err := timing.EstimateRun(p, bench, res, timing.Hand)
		if err != nil {
			lastErr = err
			continue
		}
		lSize := obs.L("size", res.Name)
		reg.Gauge("cell_auto_seconds", lBench, lPlat, lSize).Set(auto.Seconds)
		reg.Gauge("cell_hand_seconds", lBench, lPlat, lSize).Set(hand.Seconds)
		sp.SetAttr("auto_seconds", auto.Seconds)
		sp.SetAttr("hand_seconds", hand.Seconds)
		sp.SetCycles(hand.CyclesPerPixel * float64(res.Width) * float64(res.Height))
		return finish(Cell{AutoSeconds: auto.Seconds, HandSeconds: hand.Seconds}, nil)
	}
	return finish(Cell{}, lastErr)
}

// VerifyCtx is Verify with a context deadline, checked between images so a
// cancellation lands promptly even on large resolutions. Every hand-SIMD
// output is compared against a same-ISA scalar reference (the rounding
// conventions are per-platform) within the benchmark's tolerance.
func VerifyCtx(ctx context.Context, bench string, res image.Resolution) (int, error) {
	if err := validateResolution(res); err != nil {
		return 0, err
	}
	c, err := benchCall(bench)
	if err != nil {
		return 0, err
	}
	const burst = 5
	for i, src := range inputs(c, res, burst) {
		if err := ctx.Err(); err != nil {
			return 0, &resilience.DeadlineError{
				Op: "harness.verify." + bench, Cause: err,
				Completed: i, Total: burst, Unit: "images",
			}
		}
		for _, isa := range []cv.ISA{cv.ISANEON, cv.ISASSE2} {
			ref := cv.NewOps(isa, nil)
			ref.SetUseOptimized(false)
			want := newDst(c, res)
			if err := c.Run(ctx, ref, src, want); err != nil {
				return 0, err
			}
			got := newDst(c, res)
			if err := c.Run(ctx, cv.NewOps(isa, nil), src, got); err != nil {
				return 0, err
			}
			if d := want.DiffCount(got, c.Kernel.Tol(isa)); d != 0 {
				return 0, fmt.Errorf("harness: %s: %v output differs from scalar beyond tolerance in %d pixels",
					bench, isa, d)
			}
		}
	}
	return burst, nil
}

// CampaignConfig parameterizes RunFaultCampaign.
type CampaignConfig struct {
	// Rate and Seed feed the faults.Plan (see faults.Config).
	Rate float64
	Seed uint64
	// Sites and Kinds optionally restrict the plan; empty means all.
	Sites []faults.Site
	Kinds []faults.Kind
	// Burst is the number of images per ISA (default 5, the paper's burst).
	Burst int
	// Policy is the guard policy; the zero value selects the default.
	Policy cv.GuardPolicy
	// Parallel configures intra-kernel row banding for the campaign Ops.
	// The injection schedule is seeded per row, so the classified totals
	// are identical for every worker count (tested); the zero value runs
	// serially.
	Parallel cv.ParallelConfig
	// Obs, when non-nil, receives campaign observability: a span per
	// campaign, ISA, and image (kernels and guard actions nest under the
	// image spans), fault_injected_total{isa} and
	// fault_classified_total{isa,outcome} counters, and a "fault.masked"
	// event per image whose injected faults never reached a sampled pixel.
	Obs *obs.Registry
	// CheckpointPath, when non-empty, journals every completed image's
	// classification deltas and resume state, so a killed campaign
	// restarted with the same configuration replays the journaled prefix
	// and recomputes only the remaining images — bit-identically, at any
	// worker count (the injection schedule is per-(pass, row), not
	// per-goroutine). A corrupt journal cold-starts; one written by a
	// different configuration is a *checkpoint.MismatchError.
	CheckpointPath string
	// CheckpointHook, when non-nil, runs after every durable journal
	// append with the journal's record count; chaos tests interrupt here.
	CheckpointHook func(records int)
	// StallDeadline, when positive, runs the campaign under a stall
	// watchdog: a kernel band silent for longer than this cancels its
	// siblings and fails the campaign with a typed *super.StallError.
	StallDeadline time.Duration
	// AuditRate, when positive, attaches a sampled redundant-execution
	// auditor (internal/integrity) to each campaign Ops at this rate, with
	// AuditSeed driving the deterministic sampler. Audited calls re-run on
	// the scalar reference; mismatches count as caught corruption in the
	// report and land in the audit_* metric families.
	AuditRate float64
	AuditSeed uint64
	// Fuse, when enabled, runs multi-stage kernels (Canny, EdgDet) as
	// cache-blocked fused sweeps instead of staged full-plane passes. Clean
	// fused runs are byte- and count-identical to staged runs; under
	// injection the per-(pass, row) fault schedule lands on the fused pass
	// structure, so individual fault placements (not the mechanism) differ
	// from a staged campaign. The fingerprint records the fusion config so
	// staged and fused journals never mix.
	Fuse cv.FuseConfig
	// GuardDisabled runs the campaign without the guard referee, so
	// injected corruption reaches outputs silently except where an audit
	// samples the call — the configuration that turns the injection plan
	// into ground truth for measured audit detection rates (at rate 1.0
	// every corrupted output is caught; at rate r the caught count is a
	// Bernoulli(r) thinning of that set).
	GuardDisabled bool
	// Memo, when non-nil, serves repeated identical (bench, ISA, input)
	// images from the content-addressed result cache instead of executing
	// the kernel. Memoization is mutually exclusive with fault injection
	// (Rate must be 0: a cached plane would silently replay a pre-fault
	// result and falsify the masking statistics) and with checkpointed
	// resume (CheckpointPath must be empty: replay accounting assumes every
	// image actually executed). With Memo set each ISA report carries
	// MemoHits/MemoMisses and OutputSum — a chained fold of every output
	// plane's checksum — so a warm rerun is provably byte-identical to the
	// cold run that populated the cache.
	Memo *memo.Cache
}

// ISAFaultReport is the per-ISA outcome of a fault campaign.
type ISAFaultReport struct {
	ISA            cv.ISA
	Images         int
	Opportunities  uint64 // instrumented intrinsics executed
	Injected       uint64 // faults the plan fired
	Detected       int    // guard detections (images with divergence)
	RetryRecovered int    // detections resolved by re-running the SIMD path
	Fallbacks      int    // images resolved by substituting the scalar result
	Masked         uint64 // faults injected into images neither guard nor audit flagged
	Audits         uint64 // sampled redundant-execution audits performed
	AuditCaught    uint64 // audits that observed silent corruption
	MemoHits       uint64 // images served from the result cache (memo campaigns)
	MemoMisses     uint64 // images executed and stored (memo campaigns)
	// OutputSum chains every output plane's integrity checksum in image
	// order (memo campaigns only). Two campaigns with equal OutputSum
	// produced byte-identical outputs, whether computed or cache-served.
	OutputSum uint64
}

// FaultReport summarizes a reproducible fault campaign.
type FaultReport struct {
	Bench  string
	Res    image.Resolution
	Rate   float64
	Seed   uint64
	PerISA []ISAFaultReport
}

// RunFaultCampaign executes bench's kernel over an image burst per ISA with
// a seeded fault plan injected into the emulation units and the cv guard
// enabled, and classifies every injected fault as detected (the guard saw
// the divergence) or masked (the corruption never reached a sampled output
// pixel — absorbed by saturation, thresholding, or an untouched lane).
// Identical (bench, res, cfg) produce identical reports.
func RunFaultCampaign(ctx context.Context, bench string, res image.Resolution, cfg CampaignConfig) (*FaultReport, error) {
	if err := validateResolution(res); err != nil {
		return nil, err
	}
	if cfg.Memo != nil {
		if cfg.Rate != 0 {
			return nil, errors.New("harness: memoization is incompatible with fault injection (Rate must be 0)")
		}
		if cfg.CheckpointPath != "" {
			return nil, errors.New("harness: memoization is incompatible with checkpointed resume (CheckpointPath must be empty)")
		}
	}
	c, err := benchCall(bench)
	if err != nil {
		return nil, err
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = 5
	}
	isas := []cv.ISA{cv.ISANEON, cv.ISASSE2}

	// Checkpointed resume: load (or create) the journal and split each
	// ISA's burst into a replayed prefix and a live remainder.
	var journal *checkpoint.Journal
	groups := map[string][]campaignCellRecord{}
	if cfg.CheckpointPath != "" {
		fp := campaignFingerprint(bench, res, cfg, burst)
		j, err := openJournal(cfg.CheckpointPath, "campaign", fp, cfg.Obs)
		if err != nil {
			return nil, err
		}
		g, ok := decodeCampaignJournal(j, isas, burst)
		if !ok {
			if cfg.Obs != nil {
				cfg.Obs.Emit("checkpoint.corrupt", map[string]any{
					"path": cfg.CheckpointPath, "error": "campaign journal records inconsistent",
				})
			}
			if j, err = checkpoint.Create(cfg.CheckpointPath, "campaign", fp); err != nil {
				return nil, err
			}
			g = map[string][]campaignCellRecord{}
		}
		journal, groups = j, g
	}

	var wd *super.Watchdog
	if cfg.StallDeadline > 0 {
		wd = super.NewWatchdog(super.WatchdogConfig{Deadline: cfg.StallDeadline}, cfg.Obs)
		defer wd.Stop()
	}

	rep := &FaultReport{Bench: bench, Res: res, Rate: cfg.Rate, Seed: cfg.Seed}
	campSpan := cfg.Obs.StartSpan("campaign."+bench, obs.L("size", res.Name))
	defer campSpan.End()
	imagesDone := 0
	for _, isa := range isas {
		plan := faults.NewPlan(faults.Config{
			Rate: cfg.Rate, Seed: cfg.Seed, Sites: cfg.Sites, Kinds: cfg.Kinds,
		})
		o := cv.NewOps(isa, &trace.Counter{})
		switch {
		case cfg.GuardDisabled:
			// No referee: wrong bytes flow downstream unless audited.
		case cfg.Policy == (cv.GuardPolicy{}):
			o.SetGuarded(true)
		default:
			o.SetGuardPolicy(cfg.Policy)
		}
		var aud *integrity.Auditor
		if cfg.AuditRate > 0 {
			// A fresh auditor per ISA so the sampler stream and tallies are
			// per-ISA deterministic, plus a scoreboard so campaign corruption
			// shows up in the corruption_score gauges.
			aud = integrity.NewAuditor(integrity.AuditConfig{Rate: cfg.AuditRate, Seed: cfg.AuditSeed})
			aud.SetScoreboard(integrity.NewScoreboard(integrity.ScoreboardConfig{}, cfg.Obs))
			o.SetAuditor(aud)
		}
		o.SetParallel(cfg.Parallel)
		o.SetFuse(cfg.Fuse)
		o.SetFaultInjector(plan)
		o.SetObserver(cfg.Obs)
		if wd != nil {
			o.SetWatchdog(wd)
		}
		lISA := obs.L("isa", isa.String())
		isaSpan := campSpan.Child("campaign.isa", lISA)

		ir := ISAFaultReport{ISA: isa, Images: burst}
		done := groups[isa.String()]
		for _, rec := range done {
			replayCampaignRecord(rec, &ir, cfg.Obs, bench, lISA)
			imagesDone++
		}
		prevInjected := restoreCampaignState(done, plan, o, aud)
		prevFaults := 0
		var prevAudits, prevCaught uint64
		if aud != nil {
			prevAudits, prevCaught = aud.Sampled(), aud.Mismatches()
			ir.Audits, ir.AuditCaught = prevAudits, prevCaught
		}
		images := inputs(c, res, burst)
		for imgIdx := len(done); imgIdx < burst; imgIdx++ {
			src := images[imgIdx]
			if err := ctx.Err(); err != nil {
				isaSpan.End()
				return nil, &resilience.DeadlineError{
					Op: "harness.campaign." + bench, Cause: err,
					Completed: imagesDone, Total: 2 * burst, Unit: "images",
				}
			}
			imgSpan := isaSpan.Child("cell."+bench, lISA, obs.L("size", res.Name))
			imgSpan.SetAttr("image", imgIdx)
			o.SetSpanParent(imgSpan)
			dst := newDst(c, res)
			runImage := func() error { return c.Run(ctx, o, src, dst) }
			if cfg.Memo != nil {
				runImage = func() error {
					outcome, err := cfg.Memo.Do(ctx, c.MemoKey(isa, cfg.Fuse, src), dst, func(ctx context.Context) error {
						return c.Run(ctx, o, src, dst)
					})
					if err != nil {
						return err
					}
					if outcome == memo.Miss {
						ir.MemoMisses++
					} else {
						ir.MemoHits++
					}
					ir.OutputSum = (ir.OutputSum ^ integrity.SumMat(dst, 0).Fold64()) * 1099511628211
					return nil
				}
			}
			if err := runImage(); err != nil {
				o.SetSpanParent(nil)
				imgSpan.End()
				isaSpan.End()
				return nil, fmt.Errorf("harness: fault campaign %s/%v: %w", bench, isa, err)
			}
			o.SetSpanParent(nil)
			delta := plan.Injected() - prevInjected
			prevInjected = plan.Injected()
			cfg.Obs.Counter("fault_injected_total", lISA).Add(delta)
			d0, r0, f0 := ir.Detected, ir.RetryRecovered, ir.Fallbacks
			var auditsDelta, caughtDelta uint64
			if aud != nil {
				auditsDelta = aud.Sampled() - prevAudits
				caughtDelta = aud.Mismatches() - prevCaught
				prevAudits, prevCaught = aud.Sampled(), aud.Mismatches()
				ir.Audits += auditsDelta
				ir.AuditCaught += caughtDelta
			}
			// An audit catch counts as detection for masking purposes: the
			// corruption was flagged even if no guard ran.
			detectedThisImage := caughtDelta > 0
			for _, f := range o.Faults()[prevFaults:] {
				switch f.Action {
				case cv.ActionDetected:
					ir.Detected++
					detectedThisImage = true
				case cv.ActionRetryRecovered:
					ir.RetryRecovered++
				case cv.ActionFallback:
					ir.Fallbacks++
				}
				cfg.Obs.Counter("fault_classified_total", lISA,
					obs.L("outcome", f.Action.String())).Inc()
			}
			prevFaults = len(o.Faults())
			var maskedDelta uint64
			if !detectedThisImage {
				maskedDelta = delta
				ir.Masked += delta
				if delta > 0 {
					cfg.Obs.Counter("fault_classified_total", lISA,
						obs.L("outcome", "masked")).Add(delta)
					cfg.Obs.Emit("fault.masked", map[string]any{
						"bench": bench, "isa": isa.String(),
						"image": imgIdx, "count": delta,
					})
				}
			}
			imgSpan.End()
			imagesDone++
			if journal != nil {
				if err := journal.Append(campaignCellRecord{
					ISA: isa.String(), Image: imgIdx,
					Detected:       ir.Detected - d0,
					RetryRecovered: ir.RetryRecovered - r0,
					Fallbacks:      ir.Fallbacks - f0,
					InjectedDelta:  delta,
					MaskedDelta:    maskedDelta,
					PlanCalls:      plan.Calls(),
					PlanInjected:   plan.Injected(),
					Resume:         o.ResumeState(),
					AuditsDelta:    auditsDelta,
					AuditCaught:    caughtDelta,
					AuditResume:    auditResumePtr(aud),
				}); err != nil {
					isaSpan.End()
					return nil, fmt.Errorf("harness: campaign checkpoint: %w", err)
				}
				if cfg.CheckpointHook != nil {
					cfg.CheckpointHook(journal.Len())
				}
			}
		}
		isaSpan.End()
		st := plan.Snapshot()
		ir.Opportunities = st.Calls
		ir.Injected = st.Injected
		rep.PerISA = append(rep.PerISA, ir)
	}
	return rep, nil
}

// Render prints the report as a fixed-width table.
func (r *FaultReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Fault campaign: bench=%s size=%s rate=%g seed=%d\n\n",
		r.Bench, r.Res.Name, r.Rate, r.Seed)
	fmt.Fprintf(w, "%-8s %7s %14s %9s %9s %9s %9s %7s\n",
		"ISA", "images", "opportunities", "injected", "detected", "retry-ok", "fallback", "masked")
	for _, ir := range r.PerISA {
		fmt.Fprintf(w, "%-8s %7d %14d %9d %9d %9d %9d %7d\n",
			ir.ISA, ir.Images, ir.Opportunities, ir.Injected, ir.Detected,
			ir.RetryRecovered, ir.Fallbacks, ir.Masked)
	}
	var inj, masked uint64
	for _, ir := range r.PerISA {
		inj += ir.Injected
		masked += ir.Masked
	}
	if inj > 0 {
		fmt.Fprintf(w, "\n%d/%d injected faults landed in images the guard flagged (%.1f%% flagged, %.1f%% masked)\n",
			inj-masked, inj,
			100*float64(inj-masked)/float64(inj),
			100*float64(masked)/float64(inj))
	} else {
		fmt.Fprintf(w, "\nno faults injected (rate=%g over %d opportunities)\n", r.Rate, r.totalOpportunities())
	}
	for _, ir := range r.PerISA {
		if ir.Audits > 0 {
			fmt.Fprintf(w, "audit[%s]: sampled %d calls, caught %d corrupted outputs\n",
				ir.ISA, ir.Audits, ir.AuditCaught)
		}
	}
	for _, ir := range r.PerISA {
		if ir.MemoHits+ir.MemoMisses > 0 {
			fmt.Fprintf(w, "memo[%s]: %d hits, %d misses, output sum %016x\n",
				ir.ISA, ir.MemoHits, ir.MemoMisses, ir.OutputSum)
		}
	}
}

func (r *FaultReport) totalOpportunities() uint64 {
	var n uint64
	for _, ir := range r.PerISA {
		n += ir.Opportunities
	}
	return n
}
