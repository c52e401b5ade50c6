package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"simdstudy/internal/harness"
	"simdstudy/internal/image"
	"simdstudy/internal/platform"
)

// gridDigest is the SHA-256 of the rendered Table II, Table III, Figures
// 2-6 and the abstract summary. The timing model is deterministic, so any
// change to it shows here.
const gridDigest = "754d08939378b0c4676284f5944d8f2dcf00ad06b14ec2a2f1edbf1269427bf7"

// regenerate computes the five paper grids (every paper platform at the
// four paper sizes) and renders Table II, Table III, Figures 2-6 and the
// abstract summary into w. It returns the megapixels the grids model (each
// cell is one AUTO and one HAND run over an image of its size) and the CPU
// time of each step in ms: every benchmark's grid, then the rendering.
func regenerate(tr *tracer, parent int, trace string, w io.Writer) (float64, map[string]float64, error) {
	platforms := platform.Paper()
	grids := make([]*harness.Grid, 0, len(paperBenches))
	steps := map[string]float64{}
	var mpx float64
	for _, b := range paperBenches {
		sp := tr.begin(parent, trace, "harness.RunGrid")
		c0 := cpuTime()
		g, err := harness.RunGrid(b, platforms, image.Resolutions)
		steps["grid."+b] = ms(cpuTime() - c0)
		tr.end(sp)
		if err != nil {
			return 0, nil, fmt.Errorf("grid %s: %w", b, err)
		}
		grids = append(grids, g)
		for _, res := range g.Sizes {
			mpx += 2 * float64(res.Pixels()*len(g.Platforms)) / 1e6
		}
	}
	sp := tr.begin(parent, trace, "harness.render")
	defer tr.end(sp)
	c0 := cpuTime()
	grids[0].RenderTable2(w)
	// Table III shows benchmarks 2-5 at the largest size only.
	t3 := make([]*harness.Grid, 0, len(grids)-1)
	for _, g := range grids[1:] {
		last := len(g.Sizes) - 1
		t3 = append(t3, &harness.Grid{Bench: g.Bench, Platforms: g.Platforms, Sizes: g.Sizes[last:], Cells: g.Cells[last:]})
	}
	harness.RenderTable3(w, t3)
	for n := 2; n <= 6; n++ {
		for _, g := range grids {
			if g.Bench == harness.FigureForBench[n] {
				g.RenderFigure(w, n)
			}
		}
	}
	harness.RenderAbstractSummary(w, grids)
	steps["render"] = ms(cpuTime() - c0)
	return mpx, steps, nil
}

// gridReport is what one grid child prints as its last line.
type gridReport struct {
	SetupCPUS float64 `json:"setup_cpu_s"` // CPU time from process start to "ready"
	CPUS      float64 `json:"cpu_s"`       // CPU time of the regeneration
	// StepCPUMS is the CPU time of each step of the regeneration.
	StepCPUMS map[string]float64 `json:"step_cpu_ms"`
	GridS     float64            `json:"grid_s"`
	Mpx       float64            `json:"mpx"`
	Digest    string             `json:"digest"`
	RSSMiB    float64            `json:"rss_mib"`
	AllocMB   float64            `json:"alloc_mb"`
	GCPauseMS float64            `json:"gc_pause_ms"`
	Spans     []span             `json:"spans,omitempty"`
}

// gridChild runs one cold regeneration in a fresh process: the model's
// memo tables are process-wide, so only a new process is cold. It prints
// "ready" before the timed work, so the parent can time the set-up.
func gridChild(traced bool) error {
	runtime.GOMAXPROCS(1) // as in the parent's workload phase
	setupCPU := cpuTime()
	fmt.Println("ready")
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	c0, t0 := cpuTime(), time.Now()
	root := tr.begin(0, "grid", "paper_grid.regenerate")
	mpx, steps, err := regenerate(tr, root, "grid", &buf)
	tr.end(root)
	d, dCPU := time.Since(t0), cpuTime()-c0
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	sum := sha256.Sum256(buf.Bytes())
	rep := gridReport{
		SetupCPUS: setupCPU.Seconds(),
		CPUS:      dCPU.Seconds(),
		StepCPUMS: steps,
		GridS:     d.Seconds(),
		Mpx:       mpx,
		Digest:    hex.EncodeToString(sum[:]),
		RSSMiB:    peakRSSMiB(),
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		GCPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	if tr != nil {
		rep.Spans = tr.snapshot()
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// spawnGrid runs one grid child and returns its report and its set-up
// time: from starting the process to the child's "ready" line.
func spawnGrid(traced bool) (gridReport, time.Duration, int64, error) {
	var rep gridReport
	bin, err := os.Executable()
	if err != nil {
		return rep, 0, 0, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	// A regeneration takes seconds; a child still running after this has
	// hung, and the context kills it so the run ends.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "--grid-child", "--trace", traceArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return rep, 0, 0, err
	}
	startNS := now()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, 0, 0, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var setup time.Duration
	var last []byte
	for sc.Scan() {
		if setup == 0 && sc.Text() == "ready" {
			setup = time.Since(t0)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return rep, 0, 0, fmt.Errorf("grid child: %w", err)
	}
	if scanErr != nil {
		return rep, 0, 0, scanErr
	}
	if err := json.Unmarshal(last, &rep); err != nil {
		return rep, 0, 0, fmt.Errorf("grid child report: %w", err)
	}
	return rep, setup, startNS, nil
}

// runPaperGrid regenerates the paper grids cold, one child process per
// regeneration, until the timed phase is over. One operation is one cold
// regeneration. Its cost is the sum over its steps (each benchmark's grid,
// then the rendering) of each step's lowCost over the run's
// regenerations, in the child's CPU time: a step of a quarter of a second
// finds the host unloaded more often than a whole regeneration does. Its
// set-up is the child's process start, and its peak RSS the child's (the
// median over children is reported).
func runPaperGrid(r *runCtx, setups int) (outcome, error) {
	oc := outcome{
		params: map[string]any{"platforms": len(platform.Paper()), "sizes": len(image.Resolutions), "benchmarks": len(paperBenches)},
		layer:  map[string]float64{},
	}
	var times, cpuTimes []float64 // ms
	stepCPUMS := map[string][]float64{}
	var rates, allocs, pauses, rss []float64
	var mpx float64 // per regeneration
	start := time.Now()
	for n := 0; n < setups || time.Since(start) < r.seconds; n++ {
		trace := fmt.Sprintf("grid%d", n)
		sp := r.tr.begin(0, trace, "paper_grid.child")
		rep, setup, startNS, err := spawnGrid(r.tr != nil)
		r.tr.end(sp)
		if err != nil {
			return oc, err
		}
		for i := range rep.Spans {
			rep.Spans[i].Trace = trace
		}
		r.tr.graft(sp, startNS, rep.Spans)
		r.check(rep.Digest == gridDigest, "paper_grid %d: rendered digest %s, recorded %s", n, rep.Digest, gridDigest)
		oc.setup = append(oc.setup, setup)
		oc.setupCPU = append(oc.setupCPU, time.Duration(rep.SetupCPUS*float64(time.Second)))
		times = append(times, rep.GridS*1e3)
		rates = append(rates, rep.Mpx/rep.GridS)
		cpuTimes = append(cpuTimes, rep.CPUS*1e3)
		for step, v := range rep.StepCPUMS {
			stepCPUMS[step] = append(stepCPUMS[step], v)
		}
		mpx = rep.Mpx
		allocs = append(allocs, rep.AllocMB)
		pauses = append(pauses, rep.GCPauseMS)
		rss = append(rss, rep.RSSMiB)
	}
	oc.latMS = median(times)
	oc.mpxPerS = median(rates)
	_, oc.opCPUMS = classCosts(stepCPUMS)
	oc.mpxPerCPUS = mpx / (oc.opCPUMS / 1e3)
	oc.opCPUMedianMS = median(cpuTimes)
	oc.samples = len(cpuTimes)
	oc.peakRSS = median(rss)
	oc.layer["go.alloc_mb"] = median(allocs)
	oc.layer["go.gc_pause_ms"] = median(pauses)
	oc.params["regenerations"] = len(times)
	r.reportf("paper_grid %d cold regenerations, grid_s median %.3f s wall", len(times), oc.latMS/1e3)
	return oc, nil
}
