package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"simdstudy/internal/checkpoint"
	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/obs"
	"simdstudy/internal/platform"
)

// This file is the harness's crash-safety layer: the journal records,
// fingerprints and replay logic that make RunGridCtx and RunFaultCampaign
// resumable after a SIGKILL. The workload itself is deterministic (per-
// (pass, row) fault reseeding, worker-count-invariant counters), so replay
// of journaled per-cell results plus recomputation of the remainder is
// bit-identical to an uninterrupted run; checkpoint_test.go proves it at
// several interrupt points and worker counts.

// gridCellRecord journals one completed grid cell. Indices are positions in
// the run's (sizes, platforms) axes — safe because the journal fingerprint
// pins both axes — and the names ride along for human inspection.
type gridCellRecord struct {
	Size     int          `json:"size"`
	Plat     int          `json:"plat"`
	SizeName string       `json:"size_name"`
	PlatName string       `json:"plat_name"`
	Auto     float64      `json:"auto_seconds"`
	Hand     float64      `json:"hand_seconds"`
	Metrics  obs.Snapshot `json:"metrics,omitempty"`
}

// campaignCellRecord journals one completed campaign image: the per-image
// classification deltas (replayed into the report and the fault counters),
// plus the cumulative plan counters and Ops resume state needed to restart
// computation at the next image.
type campaignCellRecord struct {
	ISA            string         `json:"isa"`
	Image          int            `json:"image"`
	Detected       int            `json:"detected"`
	RetryRecovered int            `json:"retry_recovered"`
	Fallbacks      int            `json:"fallbacks"`
	InjectedDelta  uint64         `json:"injected_delta"`
	MaskedDelta    uint64         `json:"masked_delta"`
	PlanCalls      uint64         `json:"plan_calls"`
	PlanInjected   uint64         `json:"plan_injected"`
	Resume         cv.ResumeState `json:"resume"`
	// Audit fields are present only when the campaign runs with AuditRate >
	// 0, so journals written before (or without) auditing keep their exact
	// byte encoding.
	AuditsDelta uint64                 `json:"audits_delta,omitempty"`
	AuditCaught uint64                 `json:"audit_caught_delta,omitempty"`
	AuditResume *integrity.AuditResume `json:"audit_resume,omitempty"`
}

// fingerprint hashes the canonical description of a run's result-affecting
// configuration. Anything deliberately absent (grid concurrency, campaign
// worker count, retry/backoff tuning) may differ between the killed process
// and the resuming one without changing results — resuming a campaign at a
// different worker count is exactly the PR 4 invariance this layer builds
// on.
func fingerprint(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "|")))
	return hex.EncodeToString(h[:16])
}

func gridFingerprint(bench string, platforms []platform.Platform, sizes []image.Resolution) string {
	parts := []string{"grid", bench}
	for _, p := range platforms {
		parts = append(parts, p.Name)
	}
	for _, r := range sizes {
		parts = append(parts, fmt.Sprintf("%s=%dx%d", r.Name, r.Width, r.Height))
	}
	return fingerprint(parts...)
}

func campaignFingerprint(bench string, res image.Resolution, cfg CampaignConfig, burst int) string {
	pol := cfg.Policy
	if pol == (cv.GuardPolicy{}) {
		pol = cv.DefaultGuardPolicy()
	}
	parts := []string{
		"campaign", bench,
		fmt.Sprintf("%s=%dx%d", res.Name, res.Width, res.Height),
		fmt.Sprintf("rate=%g", cfg.Rate),
		fmt.Sprintf("seed=%d", cfg.Seed),
		fmt.Sprintf("sites=%v", cfg.Sites),
		fmt.Sprintf("kinds=%v", cfg.Kinds),
		fmt.Sprintf("burst=%d", burst),
		fmt.Sprintf("rows=%d,retries=%d", pol.SampleRows, pol.MaxRetries),
	}
	// Audit and guard-disable parts are appended only when set, so journals
	// from pre-audit builds keep their fingerprints.
	if cfg.AuditRate > 0 || cfg.GuardDisabled {
		parts = append(parts,
			fmt.Sprintf("audit=%g/%d", cfg.AuditRate, cfg.AuditSeed),
			fmt.Sprintf("noguard=%t", cfg.GuardDisabled),
		)
	}
	// Appended only when fusion is on, for the same reason: the fused path
	// is bit-identical, but a journal should still name the config that
	// produced it.
	if cfg.Fuse.Enabled {
		parts = append(parts, fmt.Sprintf("fuse=%d", cfg.Fuse.StripRows))
	}
	return fingerprint(parts...)
}

// openJournal applies the resume policy shared by both runners: resume a
// matching journal, start cold on a missing one, discard and warn on a
// corrupt one (surfaced as a checkpoint.corrupt event), and refuse a journal
// written by a different configuration.
func openJournal(path, kind, fp string, reg *obs.Registry) (*checkpoint.Journal, error) {
	j, resumed, warn, err := checkpoint.OpenOrCreate(path, kind, fp)
	if err != nil {
		return nil, err
	}
	if warn != nil && reg != nil {
		reg.Emit("checkpoint.corrupt", map[string]any{
			"path": path, "error": warn.Error(),
		})
	}
	if reg != nil {
		reg.Emit("checkpoint.open", map[string]any{
			"path": path, "kind": kind, "resumed": resumed, "records": j.Len(),
		})
	}
	return j, nil
}

// decodeGridJournal replays a grid journal into completed-cell records. A
// record with out-of-range indices or a duplicate cell means the file was
// tampered with past its checksums; it is treated like corruption (cold
// start) rather than trusted.
func decodeGridJournal(j *checkpoint.Journal, nSizes, nPlats int) ([]gridCellRecord, bool) {
	recs := j.Records()
	out := make([]gridCellRecord, 0, len(recs))
	seen := make(map[[2]int]bool, len(recs))
	for _, rec := range recs {
		var r gridCellRecord
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return nil, false
		}
		if r.Size < 0 || r.Size >= nSizes || r.Plat < 0 || r.Plat >= nPlats {
			return nil, false
		}
		k := [2]int{r.Size, r.Plat}
		if seen[k] {
			return nil, false
		}
		seen[k] = true
		out = append(out, r)
	}
	return out, true
}

// decodeCampaignJournal replays a campaign journal into per-ISA completed-
// image groups. Records must follow execution order — each ISA's images
// contiguous from zero, an ISA starting only after its predecessor finished
// all burst images — anything else is treated like corruption (cold start).
func decodeCampaignJournal(j *checkpoint.Journal, isas []cv.ISA, burst int) (map[string][]campaignCellRecord, bool) {
	groups := make(map[string][]campaignCellRecord, len(isas))
	cur := 0
	for _, rec := range j.Records() {
		var r campaignCellRecord
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return nil, false
		}
		// Advance past ISAs whose groups are complete.
		for cur < len(isas) && len(groups[isas[cur].String()]) == burst {
			cur++
		}
		if cur >= len(isas) || r.ISA != isas[cur].String() {
			return nil, false
		}
		if r.Image != len(groups[r.ISA]) {
			return nil, false
		}
		groups[r.ISA] = append(groups[r.ISA], r)
	}
	return groups, true
}

// replayCampaignRecord folds one journaled image back into the in-progress
// per-ISA report and re-increments the observable fault counters (and the
// fault.masked event) exactly as the live classification loop would have.
// Kernel spans and wall-clock series are process-local telemetry and are
// not replayed.
func replayCampaignRecord(rec campaignCellRecord, ir *ISAFaultReport,
	reg *obs.Registry, bench string, lISA obs.Label) {
	ir.Detected += rec.Detected
	ir.RetryRecovered += rec.RetryRecovered
	ir.Fallbacks += rec.Fallbacks
	ir.Masked += rec.MaskedDelta
	ir.Audits += rec.AuditsDelta
	ir.AuditCaught += rec.AuditCaught
	reg.Counter("fault_injected_total", lISA).Add(rec.InjectedDelta)
	for _, oc := range []struct {
		name string
		n    int
	}{
		{cv.ActionDetected.String(), rec.Detected},
		{cv.ActionRetryRecovered.String(), rec.RetryRecovered},
		{cv.ActionFallback.String(), rec.Fallbacks},
	} {
		if oc.n > 0 {
			reg.Counter("fault_classified_total", lISA,
				obs.L("outcome", oc.name)).Add(uint64(oc.n))
		}
	}
	if rec.MaskedDelta > 0 {
		reg.Counter("fault_classified_total", lISA,
			obs.L("outcome", "masked")).Add(rec.MaskedDelta)
		reg.Emit("fault.masked", map[string]any{
			"bench": bench, "isa": rec.ISA,
			"image": rec.Image, "count": rec.MaskedDelta,
		})
	}
}

// restoreCampaignState positions a fresh plan and Ops where the journaled
// prefix left them: cumulative plan counters (the decision stream needs no
// restoration — it is reseeded per (pass, row)), the pass sequence that
// derives those salts, and — when both the caller and the journal carry
// one — the auditor's sampler stream position and tallies.
func restoreCampaignState(done []campaignCellRecord, plan *faults.Plan, o *cv.Ops, aud *integrity.Auditor) (prevInjected uint64) {
	if len(done) == 0 {
		return 0
	}
	last := done[len(done)-1]
	plan.RestoreCounters(last.PlanCalls, last.PlanInjected)
	o.SetResumeState(last.Resume)
	if aud != nil && last.AuditResume != nil {
		aud.SetResume(*last.AuditResume)
	}
	return last.PlanInjected
}

// auditResumePtr snapshots an auditor's resume state for journaling, nil
// when auditing is off so pre-audit journal bytes are unchanged.
func auditResumePtr(aud *integrity.Auditor) *integrity.AuditResume {
	if aud == nil {
		return nil
	}
	r := aud.Resume()
	return &r
}
