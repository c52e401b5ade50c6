package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/platform"
	"simdstudy/internal/timing"
)

var testRes = image.Resolution{Width: 96, Height: 64, Name: "96x64"}

func TestVerifyErrorPaths(t *testing.T) {
	if _, err := Verify("NoSuchBench", testRes); err == nil ||
		!strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unknown benchmark: got %v", err)
	}
	for _, res := range []image.Resolution{
		{Width: 0, Height: 64, Name: "0x64"},
		{Width: 96, Height: -1, Name: "96x-1"},
	} {
		if _, err := Verify("GauBlu", res); !errors.Is(err, ErrBadResolution) {
			t.Errorf("%s: want ErrBadResolution, got %v", res.Name, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VerifyCtx(ctx, "GauBlu", testRes); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled verify: got %v", err)
	}
}

func TestRunGridCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunGridCtx(ctx, "BinThr", platform.Paper(), smallSizes, GridOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled grid: got %v", err)
	}
	if _, err := RunGridCtx(context.Background(), "BinThr", platform.Paper(),
		[]image.Resolution{{Width: -3, Height: 2}}, GridOptions{}); !errors.Is(err, ErrBadResolution) {
		t.Errorf("bad resolution: got %v", err)
	}
}

func TestRunGridCtxRetriesExhaust(t *testing.T) {
	// An unknown benchmark fails deterministically; retries must exhaust
	// and surface the underlying error, not mask it.
	start := time.Now()
	_, err := RunGridCtx(context.Background(), "NoSuch", platform.Paper()[:1], smallSizes,
		GridOptions{Retries: 2, Backoff: time.Millisecond})
	if err == nil {
		t.Fatal("want error from unknown benchmark")
	}
	// Backoff 1ms + 2ms must actually have been waited.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Errorf("retries returned after %v; backoff not applied", elapsed)
	}
}

// TestFaultCampaignDetectsCorruption is the acceptance check: injected lane
// corruption must trigger guard detection and scalar fallback, and the
// final report must classify every injected fault.
func TestFaultCampaignDetectsCorruption(t *testing.T) {
	rep, err := RunFaultCampaign(context.Background(), "GauBlu", testRes, CampaignConfig{
		Rate: 1e-4,
		Seed: 7,
		// Retries off so every detection becomes a fallback.
		Policy: cv.GuardPolicy{SampleRows: 64, MaxRetries: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerISA) != 2 {
		t.Fatalf("want NEON+SSE2 reports, got %d", len(rep.PerISA))
	}
	for _, ir := range rep.PerISA {
		if ir.Injected == 0 {
			t.Errorf("%v: nothing injected at rate 1e-4 (opportunities=%d)", ir.ISA, ir.Opportunities)
		}
		if ir.Detected == 0 {
			t.Errorf("%v: corruption never detected (injected=%d)", ir.ISA, ir.Injected)
		}
		if ir.Fallbacks == 0 {
			t.Errorf("%v: no scalar fallback recorded", ir.ISA)
		}
		if ir.Detected != ir.Fallbacks {
			t.Errorf("%v: with retries off every detection must fall back: detected=%d fallbacks=%d",
				ir.ISA, ir.Detected, ir.Fallbacks)
		}
	}

	var out bytes.Buffer
	rep.Render(&out)
	for _, want := range []string{"injected", "detected", "masked", "rate=0.0001 seed=7"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestFaultCampaignDeterministic: identical config must yield identical
// reports — the whole point of a seeded plan.
func TestFaultCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{Rate: 5e-5, Seed: 11}
	a, err := RunFaultCampaign(context.Background(), "BinThr", testRes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultCampaign(context.Background(), "BinThr", testRes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("campaigns differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFaultCampaignZeroRate: with no faults the guard must stay silent for
// every benchmark — guarded mode changes nothing when injection is off.
func TestFaultCampaignZeroRate(t *testing.T) {
	for _, bench := range timing.BenchNames {
		rep, err := RunFaultCampaign(context.Background(), bench, testRes, CampaignConfig{Rate: 0, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		for _, ir := range rep.PerISA {
			if ir.Injected != 0 || ir.Detected != 0 || ir.Fallbacks != 0 || ir.Masked != 0 {
				t.Errorf("%s/%v: spurious activity at rate 0: %+v", bench, ir.ISA, ir)
			}
			if ir.Opportunities == 0 {
				t.Errorf("%s/%v: no fault opportunities counted — hooks not wired?", bench, ir.ISA)
			}
		}
	}
	if _, err := RunFaultCampaign(context.Background(), "NoSuch", testRes, CampaignConfig{}); err == nil {
		t.Error("unknown benchmark should error")
	}
}

// TestFaultCampaignSiteRestriction: restricting the plan to store sites
// must keep all injections at stores.
func TestFaultCampaignSiteRestriction(t *testing.T) {
	rep, err := RunFaultCampaign(context.Background(), "BinThr", testRes, CampaignConfig{
		Rate:  1e-3,
		Seed:  3,
		Sites: []faults.Site{faults.SiteStore},
		Kinds: []faults.Kind{faults.KindBitFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range rep.PerISA {
		if ir.Injected == 0 {
			t.Errorf("%v: store-site restriction injected nothing", ir.ISA)
		}
	}
}
