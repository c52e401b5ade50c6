package harness

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"simdstudy/internal/cv"
	"simdstudy/internal/resilience"
)

// TestAuditFullRateMatchesGuardGroundTruth is the rate-1.0 acceptance check.
// A full-row-sampling guard campaign sees every corrupted output, so its
// per-ISA detection counts are ground truth; the same fault plan replayed
// with the guard disabled and every call audited must catch exactly that
// set — same caught count, same masked count — because the injection
// schedule is independent of both interventions.
func TestAuditFullRateMatchesGuardGroundTruth(t *testing.T) {
	guarded, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, CampaignConfig{
		Rate: 1e-3, Seed: 17, Burst: 12,
		Policy: cv.GuardPolicy{SampleRows: testRes.Height, MaxRetries: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	audited, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, CampaignConfig{
		Rate: 1e-3, Seed: 17, Burst: 12,
		GuardDisabled: true, AuditRate: 1.0, AuditSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range guarded.PerISA {
		a := audited.PerISA[i]
		if g.Injected != a.Injected {
			t.Fatalf("%v: injection schedule drifted: guard %d vs audit %d",
				g.ISA, g.Injected, a.Injected)
		}
		if a.Audits != uint64(a.Images) {
			t.Errorf("%v: rate 1.0 audited %d of %d calls", a.ISA, a.Audits, a.Images)
		}
		if a.AuditCaught == 0 {
			t.Errorf("%v: no corruption caught (injected=%d)", a.ISA, a.Injected)
		}
		if uint64(g.Detected) != a.AuditCaught {
			t.Errorf("%v: guard detected %d corrupted calls, audit 1.0 caught %d — not 100%%",
				g.ISA, g.Detected, a.AuditCaught)
		}
		if g.Masked != a.Masked {
			t.Errorf("%v: masked sets differ: guard %d vs audit %d", g.ISA, g.Masked, a.Masked)
		}
	}
	var buf bytes.Buffer
	audited.Render(&buf)
	if !strings.Contains(buf.String(), "audit[neon]: sampled 12 calls") {
		t.Errorf("rendered report missing audit lines:\n%s", buf.String())
	}
}

// TestAuditQuarterRateBinomialFloor pins the sampling math: the calls a
// rate-0.25 auditor samples are a Bernoulli(0.25) thinning of the rate-1.0
// set (the draw sequence depends only on seed and draw count), so the caught
// count at 0.25 must sit inside a 4-sigma binomial band of 0.25 x the
// rate-1.0 caught count, and can never exceed it.
func TestAuditQuarterRateBinomialFloor(t *testing.T) {
	base := CampaignConfig{Rate: 1e-3, Seed: 17, Burst: 60, GuardDisabled: true, AuditSeed: 3}

	full := base
	full.AuditRate = 1.0
	ref, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, full)
	if err != nil {
		t.Fatal(err)
	}
	quarter := base
	quarter.AuditRate = 0.25
	rep, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, quarter)
	if err != nil {
		t.Fatal(err)
	}

	var c1, c2 uint64
	for _, ir := range ref.PerISA {
		c1 += ir.AuditCaught
	}
	for _, ir := range rep.PerISA {
		c2 += ir.AuditCaught
	}
	if c1 < 40 {
		t.Fatalf("rate-1.0 ground truth too thin for a binomial bound: %d corrupted calls", c1)
	}
	floor := uint64(math.Floor(0.25*float64(c1) - 4*math.Sqrt(float64(c1)*0.25*0.75)))
	if c2 > c1 {
		t.Errorf("rate 0.25 caught %d > rate 1.0 ground truth %d", c2, c1)
	}
	if c2 < floor {
		t.Errorf("rate 0.25 caught %d, below binomial floor %d (ground truth %d)", c2, floor, c1)
	}

	// Identical configuration replays bit-identically: sampling is seeded,
	// not wall-clock or map-order dependent.
	again, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, quarter)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Errorf("audited campaign not deterministic:\n got %+v\nwant %+v", again, rep)
	}
}

// TestAuditCampaignKillAndResume extends the PR 7 resume proof to audited
// campaigns: the journaled sampler stream position must restore so the
// resumed remainder draws the same sampling decisions an uninterrupted run
// would have.
func TestAuditCampaignKillAndResume(t *testing.T) {
	base := CampaignConfig{Rate: 1e-3, Seed: 17, Burst: 3, GuardDisabled: true,
		AuditRate: 0.5, AuditSeed: 9}
	ref, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, base)
	if err != nil {
		t.Fatal(err)
	}
	total := 2 * base.Burst
	for killAt := 1; killAt < total; killAt++ {
		path := filepath.Join(t.TempDir(), "audit.journal")
		ctx, cancel := context.WithCancel(context.Background())
		cfg := base
		cfg.CheckpointPath = path
		cfg.CheckpointHook = func(records int) {
			if records >= killAt {
				cancel()
			}
		}
		_, err := RunFaultCampaign(ctx, "GauBlu", testRes, cfg)
		var de *resilience.DeadlineError
		if !errors.As(err, &de) {
			t.Fatalf("kill=%d: killed run = %v, want *resilience.DeadlineError", killAt, err)
		}
		cfg2 := base
		cfg2.CheckpointPath = path
		rep, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, cfg2)
		if err != nil {
			t.Fatalf("kill=%d: resume: %v", killAt, err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Errorf("kill=%d: resumed audited report differs:\n got %+v\nwant %+v", killAt, rep, ref)
		}
	}
}
