package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/harness"
	"simdstudy/internal/image"
)

var paperBenches = []string{"ConvertFloatShort", "BinThr", "GauBlu", "SobFil", "EdgDet"}

// campaignConfig is the fault campaign of the campaign workload: faults at
// rate 1e-5 (seed 7), sampled audits at rate 0.25 (seed 1), the default
// guard, serial execution over the 5-image burst.
var campaignConfig = harness.CampaignConfig{Rate: 1e-5, Seed: 7, AuditRate: 0.25, AuditSeed: 1}

var campaignRes = image.Res03MP

// isaCounts is one ISA's instrumented-intrinsic and injected-fault totals.
type isaCounts struct{ opportunities, injected uint64 }

// campaignRecorded holds the per-ISA counts of campaignConfig at 640x480.
// Both are pure functions of the kernels' instruction streams and the
// fault plan, so any drift means one of them changed.
var campaignRecorded = map[string]map[cv.ISA]isaCounts{
	"ConvertFloatShort": {cv.ISANEON: {2303988, 19}, cv.ISASSE2: {1727990, 17}},
	"BinThr":            {cv.ISANEON: {479990, 1}, cv.ISASSE2: {479990, 1}},
	"GauBlu":            {cv.ISANEON: {10967040, 95}, cv.ISASSE2: {20808480, 193}},
	"SobFil":            {cv.ISANEON: {3436785, 26}, cv.ISASSE2: {3815985, 30}},
	"EdgDet":            {cv.ISANEON: {8975960, 67}, cv.ISASSE2: {10307960, 81}},
}

// runCampaign repeats full cycles of the five paper benchmarks' fault
// campaigns; one operation is one benchmark's campaign, timed in CPU time,
// and the benchmarks are the operation classes. The campaign's
// inputs and fault plan are fixed, whatever the seed, so its counts can be
// checked exactly.
func runCampaign(r *runCtx, setups int) (outcome, error) {
	oc := outcome{params: map[string]any{
		"resolution": campaignRes.Name, "burst": 5, "fault_rate": campaignConfig.Rate,
		"fault_seed": campaignConfig.Seed, "audit_rate": campaignConfig.AuditRate,
		"audit_seed": campaignConfig.AuditSeed, "guard": "default", "workers": 1,
	}}
	// Set-up is a warm-up campaign per benchmark on a small burst, so the
	// timed cycles start with the kernels' pools and plans in place.
	warm := campaignConfig
	warm.Burst = 2
	warmRes := image.Resolution{Width: 160, Height: 120, Name: "160x120"}
	for i := 0; i < setups; i++ {
		t := startSetup(i == 0)
		for _, b := range paperBenches {
			if _, err := harness.RunFaultCampaign(context.Background(), b, warmRes, warm); err != nil {
				return oc, fmt.Errorf("warm-up %s: %w", b, err)
			}
		}
		oc.endSetup(t)
	}

	mpxPerCampaign := float64(5*campaignRes.Pixels()*2) / 1e6 // images x pixels x ISAs
	// Campaign wall and CPU times by benchmark.
	opMS, opCPUMS := map[string][]float64{}, map[string][]float64{}
	campaigns := 0
	var total time.Duration
	start := time.Now()
	cycles := 0
	for ; cycles == 0 || time.Since(start) < r.seconds; cycles++ {
		trace := fmt.Sprintf("cycle%d", cycles)
		root := r.tr.begin(0, trace, "campaign.cycle")
		for _, b := range paperBenches {
			sp := r.tr.begin(root, trace+"/"+b, "harness.RunFaultCampaign")
			c0, t0 := cpuTime(), time.Now()
			rep, err := harness.RunFaultCampaign(context.Background(), b, campaignRes, campaignConfig)
			d, dCPU := time.Since(t0), cpuTime()-c0
			r.tr.end(sp)
			if err != nil {
				return oc, fmt.Errorf("campaign %s: %w", b, err)
			}
			opMS[b] = append(opMS[b], ms(d))
			opCPUMS[b] = append(opCPUMS[b], ms(dCPU))
			campaigns++
			total += d
			for _, isa := range rep.PerISA {
				want := campaignRecorded[b][isa.ISA]
				got := isaCounts{isa.Opportunities, isa.Injected}
				r.check(got == want && isa.Images == 5,
					"campaign %s/%v: opportunities/injected %d/%d over %d images, recorded %d/%d over 5",
					b, isa.ISA, got.opportunities, got.injected, isa.Images, want.opportunities, want.injected)
			}
		}
		r.tr.end(root)
	}
	oc.mpxPerS = mpxPerCampaign * float64(campaigns) / total.Seconds()
	oc.latMS = classMedianGeomean(opMS, math.Inf(1))
	var cycleMS float64
	oc.opCPUMS, cycleMS = classCosts(opCPUMS)
	oc.mpxPerCPUS = mpxPerCampaign * float64(len(opCPUMS)) / (cycleMS / 1e3)
	oc.opCPUMedianMS = classMedianGeomean(opCPUMS, math.Inf(1))
	oc.samples = campaigns
	oc.params["cycles"] = cycles
	r.reportf("campaign %d cycles, %d campaigns", cycles, campaigns)
	return oc, nil
}
