package harness

import (
	"context"
	"testing"

	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/image"
)

// TestCampaignClassificationPinned pins the full guard+audit classification
// of the benchmark's campaign configuration (faults at 1e-5 seed 7, audits
// at 0.25 seed 1, default guard, serial, 5-image burst, 640x480). Every
// column is a pure function of the kernels' instruction streams, the fault
// plan, the guard's row sampler and the audit sampler, so any drift means
// one of them changed.
func TestCampaignClassificationPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("640x480 campaigns")
	}
	type row struct {
		opportunities, injected     uint64
		detected, retryOK, fallback int
		masked, audits, caught      uint64
	}
	want := map[string]map[cv.ISA]row{
		"ConvertFloatShort": {
			cv.ISANEON: {2303988, 19, 1, 1, 0, 9, 1, 1},
			cv.ISASSE2: {1727990, 17, 0, 0, 0, 14, 1, 1},
		},
		"GauBlu": {
			cv.ISANEON: {10967040, 95, 1, 0, 1, 42, 1, 1},
			cv.ISASSE2: {20808480, 193, 2, 0, 2, 48, 1, 1},
		},
	}
	cfg := CampaignConfig{Rate: 1e-5, Seed: 7, AuditRate: 0.25, AuditSeed: 1}
	for _, bench := range []string{"ConvertFloatShort", "GauBlu"} {
		rep, err := RunFaultCampaign(context.Background(), bench, image.Res03MP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ir := range rep.PerISA {
			got := row{ir.Opportunities, ir.Injected, ir.Detected, ir.RetryRecovered,
				ir.Fallbacks, ir.Masked, ir.Audits, ir.AuditCaught}
			if w := want[bench][ir.ISA]; got != w || ir.Images != 5 {
				t.Errorf("%s/%v: got %+v over %d images, want %+v over 5", bench, ir.ISA, got, ir.Images, w)
			}
		}
	}
}

// TestFaultCampaignRateOneFallsBack: at rate 1 every SIMD image diverges,
// so under the default guard each image is detected and falls back — five
// per ISA, with no terminal latch cutting the burst short — and the images
// the guard hands back equal the scalar reference.
func TestFaultCampaignRateOneFallsBack(t *testing.T) {
	cfg := CampaignConfig{Rate: 1, Seed: 7}
	rep, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range rep.PerISA {
		if ir.Detected != 5 || ir.Fallbacks != 5 || ir.RetryRecovered != 0 || ir.Masked != 0 {
			t.Errorf("%v: detected/retry-ok/fallback/masked = %d/%d/%d/%d, want 5/0/5/0",
				ir.ISA, ir.Detected, ir.RetryRecovered, ir.Fallbacks, ir.Masked)
		}
	}

	// The same per-ISA setup the campaign builds, with the outputs kept.
	c, err := benchCall("GauBlu")
	if err != nil {
		t.Fatal(err)
	}
	for _, isa := range []cv.ISA{cv.ISANEON, cv.ISASSE2} {
		o := cv.NewOps(isa, nil)
		o.SetGuarded(true)
		o.SetFaultInjector(faults.NewPlan(faults.Config{Rate: cfg.Rate, Seed: cfg.Seed}))
		ref := cv.NewOps(isa, nil)
		ref.SetUseOptimized(false)
		for i, src := range inputs(c, testRes, 5) {
			got, want := newDst(c, testRes), newDst(c, testRes)
			if err := c.Run(context.Background(), o, src, got); err != nil {
				t.Fatal(err)
			}
			if err := c.Run(context.Background(), ref, src, want); err != nil {
				t.Fatal(err)
			}
			if !want.EqualTo(got) {
				t.Errorf("%v image %d: %d pixels differ from scalar", isa, i, want.DiffCount(got, 0))
			}
		}
	}
}

// TestCampaignFingerprintNamesPolicy: the journal fingerprint names the
// guard policy's fields, so configs differing only in SampleRows or
// MaxRetries never share a journal.
func TestCampaignFingerprintNamesPolicy(t *testing.T) {
	res := image.Resolution{Width: 96, Height: 64, Name: "96x64"}
	fp := func(p cv.GuardPolicy) string {
		return campaignFingerprint("GauBlu", res, CampaignConfig{Rate: 1e-4, Seed: 7, Policy: p}, 5)
	}
	base := fp(cv.GuardPolicy{SampleRows: 8, MaxRetries: 1})
	if fp(cv.GuardPolicy{}) != base {
		t.Error("the zero policy must fingerprint as the default policy")
	}
	if fp(cv.GuardPolicy{SampleRows: 9, MaxRetries: 1}) == base {
		t.Error("SampleRows does not reach the fingerprint")
	}
	if fp(cv.GuardPolicy{SampleRows: 8, MaxRetries: 2}) == base {
		t.Error("MaxRetries does not reach the fingerprint")
	}
}
