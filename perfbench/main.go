// Command perfbench is the repository benchmark. One invocation runs one
// named workload with a seed, checks that the outputs are correct, and
// prints every metric by name with its unit. The last line of standard
// output is the machine-readable result; the lines before it are a
// human-readable report and the environment record.
//
//	bash perfbench/run.sh --workload burst --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) records spans around every call the benchmark makes into a
// layer, runs the per-layer probes, and reports the per-layer metrics; its
// spans are written to .bench_build/spans/ when the run ends. README.md
// lists the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart stands in for the process start time: package variables
// are initialized just before main runs.
var processStart = time.Now()

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, as in BENCHMARK.json.
// Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"mpx_per_cpu_s", "Mpx/cpu-s"},
	{"op_cpu_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured in its timed phase. The end-to-end
// metrics are CPU times of the process (see cpuTime); the wall-clock
// figures are reported beside them.
type outcome struct {
	// setup and setupCPU hold the wall and CPU time of each set-up; the
	// first counts from process start.
	setup, setupCPU []time.Duration
	// mpxPerCPUS is output megapixels per CPU-second of one operation of
	// every class, each at its lowCost.
	mpxPerCPUS float64
	// opCPUMS is the CPU time of one operation in ms: the geometric mean
	// over the workload's operation classes of each class's lowCost.
	opCPUMS float64
	// opCPUMedianMS is opCPUMS with each class's median in place of its
	// lowCost, and samples the number of costs both are taken over.
	opCPUMedianMS float64
	samples       int
	// mpxPerS is output megapixels per second of wall-clock operation time
	// over the timed phase, and latMS the wall-clock time of one operation
	// (the geometric mean over classes of each class's median).
	mpxPerS, latMS float64
	// peakRSS overrides this process's peak RSS (MiB) when the work ran in
	// child processes.
	peakRSS float64
	// layer holds per-layer values only the workload phase can give
	// (go.alloc_mb and go.gc_pause_ms when the work ran in children).
	layer  map[string]float64
	params map[string]any // recorded in the environment line
}

// setupTimer times one set-up in wall and CPU time.
type setupTimer struct {
	wall time.Time
	cpu  time.Duration
}

// startSetup starts timing a set-up; the first set-up of a run counts from
// process start, when the process had used no CPU time.
func startSetup(first bool) setupTimer {
	if first {
		return setupTimer{processStart, 0}
	}
	return setupTimer{time.Now(), cpuTime()}
}

// endSetup records the set-up t timed.
func (oc *outcome) endSetup(t setupTimer) {
	oc.setup = append(oc.setup, time.Since(t.wall))
	oc.setupCPU = append(oc.setupCPU, cpuTime()-t.cpu)
}

// workloads maps each workload name to its run; BENCHMARK.json records
// why each was chosen.
var workloads = map[string]func(r *runCtx, setups int) (outcome, error){
	"burst":      runBurst,
	"campaign":   runCampaign,
	"serve":      runServe,
	"paper_grid": runPaperGrid,
}

// offBenchmark lists the workloads BENCHMARK.json leaves out: they run on
// request, but on a shared host their costs moved by more than the
// bounds between runs and between hours (README.md gives the figures).
// The traced runs of the listed workloads still measure their layers.
var offBenchmark = []string{"serve", "paper_grid"}

// runCtx is the state one run shares with its phases.
type runCtx struct {
	workload string
	seed     uint64
	seconds  time.Duration
	tr       *tracer // nil in untraced runs

	attempted, failed int
	incorrect         bool     // some output was wrong
	invalid           []string // the run cannot be trusted (generator fell behind)
	problems          []string
}

// check counts one checked operation; a false ok counts it as failed and
// its output as wrong.
func (r *runCtx) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	r.incorrect = true
	r.note(format, args...)
}

func (r *runCtx) note(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// reportf adds a line to the human-readable report on standard output.
func (r *runCtx) reportf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run: burst, campaign, serve or paper_grid")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	child := flag.Bool("grid-child", false, "run one cold paper-grid regeneration and report it as JSON (used by paper_grid)")
	flag.Parse()
	traced := *traceFlag == 1
	if *child {
		return gridChild(traced)
	}
	run, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want burst, campaign, serve or paper_grid)", *name)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	r := &runCtx{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
	}
	if traced {
		r.tr = &tracer{}
	}
	setups := 5
	if traced {
		setups = 1
	}
	r.reportf("# perfbench %s seed=%d seconds=%g trace=%d", *name, *seed, *seconds, *traceFlag)

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	// The workload runs on one P. With a second, idle P the Go runtime
	// spends CPU time spinning for work whenever a goroutine wakes and
	// runs idle-time GC mark workers, and how much of it depends on how
	// busy the rest of the host is, not on the work.
	procs := runtime.GOMAXPROCS(1)
	oc, err := run(r, setups)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	metrics := map[string]metric{}
	if traced {
		layer := map[string]float64{
			"go.alloc_mb":              float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			"go.gc_pause_ms":           float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
			"run.traced_mpx_per_cpu_s": oc.mpxPerCPUS,
		}
		for k, v := range oc.layer {
			layer[k] = v
		}
		probes, err := layerSuite(r)
		if err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		for k, v := range probes {
			layer[k] = v
		}
		layer["run.spans"] = float64(r.tr.len())
		printSelfTimes(r)
		if err := r.tr.write(*name, *seed); err != nil {
			return err
		}
		for _, d := range perLayer {
			v, ok := layer[d.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			metrics[d.name] = metric{v, d.unit}
		}
	} else {
		rss := oc.peakRSS
		if rss == 0 {
			rss = peakRSSMiB()
		}
		values := map[string]float64{
			"setup_s":       medianDuration(oc.setupCPU).Seconds(),
			"peak_rss_mb":   rss,
			"mpx_per_cpu_s": oc.mpxPerCPUS,
			"op_cpu_ms":     oc.opCPUMS,
		}
		for _, d := range endToEnd {
			metrics[d.name] = metric{values[d.name], d.unit}
		}
	}
	r.reportf("CPU time:   %10.6g Mpx/cpu-s  %10.6g ms per operation  %8.4f s set-up  (least costs; median costs %.6g ms per operation; %d costs)",
		oc.mpxPerCPUS, oc.opCPUMS, medianDuration(oc.setupCPU).Seconds(), oc.opCPUMedianMS, oc.samples)
	r.reportf("wall clock: %10.6g Mpx/s      %10.6g ms per operation  %8.4f s set-up",
		oc.mpxPerS, oc.latMS, medianDuration(oc.setup).Seconds())
	for _, d := range sortedMetricNames(metrics) {
		r.reportf("%-34s %14.6g %s", d, metrics[d].Value, metrics[d].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, p := range r.invalid {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", p)
	}

	env := environment(r, oc.params, traced)
	line, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res := result{
		Correct:   !r.incorrect && len(r.invalid) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	if res.Attempted == 0 {
		return errors.New("no operation was checked")
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sortedMetricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
