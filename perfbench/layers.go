package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"simdstudy/internal/cache"
	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/kernels"
	"simdstudy/internal/memo"
	"simdstudy/internal/neon"
	"simdstudy/internal/obs"
	"simdstudy/internal/platform"
	"simdstudy/internal/sse2"
	"simdstudy/internal/timing"
	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
	"simdstudy/internal/vectorizer"
)

// The per-layer probes drive each layer through its public entry points,
// one layer at a time, in the traced run. Their sizes keep the whole suite
// to about twenty seconds on a 2-vCPU host.
var (
	probeRes = image.Res03MP                                           // kernel, trace, guard and ladder probes
	parRes   = image.Resolution{Width: 1296, Height: 960, Name: "1MP"} // banding probes
)

var (
	neonIntrinsics = []string{"VminqU8", "VmlalU8", "VrshrnNU16", "Vld1qU8", "VcvtqS32F32", "VqmovnS32", "Vld3U8"}
	sse2Intrinsics = []string{"CvtpsEpi32", "PacksEpi32", "MaddEpi16", "MinEpu8", "LoaduSi128"}
	simdISAs       = []cv.ISA{cv.ISANEON, cv.ISASSE2}
	parKernels     = []string{"gaussian", "convert", "median", "canny"}
	// paperKernel maps the paper's benchmarks to the kernels they run.
	paperKernel = map[string]string{
		"ConvertFloatShort": "convert", "BinThr": "threshold", "GauBlu": "gaussian",
		"SobFil": "sobel", "EdgDet": "edges",
	}
	ladderRungs = []string{"intrinsic", "serial", "banded", "fused", "guarded", "audited", "memo_hit", "http"}
)

// perLayer lists the metrics of a traced run, as in BENCHMARK.json.
var perLayer = perLayerDefs()

func perLayerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit string) { d = append(d, metricDef{name, unit}) }
	for _, n := range neonIntrinsics {
		add("neon."+n+".ns", "ns")
	}
	for _, n := range sse2Intrinsics {
		add("sse2."+n+".ns", "ns")
	}
	for _, k := range kernelTable {
		for _, isa := range burstISAs {
			add(fmt.Sprintf("cv.%s.%v.ns_per_px", k.name, isa), "ns/px")
		}
		for _, isa := range simdISAs {
			add(fmt.Sprintf("cv.%s.%v.inst_per_px", k.name, isa), "inst/px")
		}
	}
	add("trace.record.ns", "ns")
	for _, b := range paperBenches {
		add("trace.overhead."+b, "ratio")
	}
	for _, k := range parKernels {
		add("par."+k+".speedup", "ratio")
		add("par."+k+".allocs", "count")
	}
	add("fuse.canny.ratio", "ratio")
	add("fuse.edges.ratio", "ratio")
	for _, b := range paperBenches {
		add("guard.overhead."+b, "ratio")
	}
	add("integrity.audit.ns_per_px", "ns/px")
	add("integrity.summat.ns_per_byte", "ns/B")
	add("faults.overhead", "ratio")
	add("memo.key.ns_per_byte", "ns/B")
	add("memo.hit.ns", "ns")
	add("memo.hit_frac", "frac")
	add("memo.coalesced_frac", "frac")
	add("memo.evictions", "count")
	add("image.synth.ns_per_px", "ns/px")
	add("obs.observe.ns", "ns")
	add("serve.dispatch_ms.p50", "ms")
	add("serve.overhead_ms.p50", "ms")
	add("serve.served_frac", "frac")
	add("timing.traffic.s", "s")
	add("timing.hand_profile.s", "s")
	add("vectorizer.analyze.s", "s")
	add("harness.render.s", "s")
	add("cache.access.ns", "ns")
	add("go.alloc_mb", "MiB")
	add("go.gc_pause_ms", "ms")
	for i, rung := range ladderRungs {
		add("ladder."+rung+".ns_per_px", "ns/px")
		if i > 0 {
			add(fmt.Sprintf("ladder.%s_over_%s", rung, ladderRungs[i-1]), "ratio")
		}
	}
	add("run.traced_mpx_per_cpu_s", "Mpx/cpu-s")
	add("run.spans", "count")
	return d
}

// layerSuite runs every per-layer probe and returns the metrics by name.
func layerSuite(r *runCtx) (map[string]float64, error) {
	m := map[string]float64{}
	probes := []struct {
		name string
		run  func(r *runCtx, m map[string]float64) error
	}{
		{"intrinsics", probeIntrinsics},
		{"cv", probeKernels},
		{"trace", probeTrace},
		{"par", probePar},
		{"guard", probeGuard},
		{"memo", probeMemo},
		{"serve", probeServe},
		{"timing", probeTiming},
		{"ladder", probeLadder},
	}
	for _, p := range probes {
		sp := r.tr.begin(0, "probes", "probe."+p.name)
		err := p.run(r, m)
		r.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	printLadder(r, m)
	return m, nil
}

// nsPer returns the median over five repetitions of the time per call of
// n calls of fn.
func nsPer(n int, fn func(i int)) float64 {
	var v []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		v = append(v, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(v)
}

// Sinks keep the compiler from discarding timed results.
var (
	sink128 vec.V128
	sink64  vec.V64
	sink3   [3]vec.V64
)

// probeIntrinsics times single intrinsics on units with no trace counter
// and no fault injector: the emulation's own cost per call.
func probeIntrinsics(_ *runCtx, m map[string]float64) error {
	const n = 1 << 17
	buf := make([]uint8, 1024+32)
	for i := range buf {
		buf[i] = uint8(i*37 + 11)
	}
	fl := []float32{1.5, -2.25, 300.75, -40000.5}
	nu := neon.New(nil)
	a, b := nu.Vld1qU8(buf), nu.Vld1qU8(buf[16:])
	a64, b64 := nu.Vld1U8(buf[32:]), nu.Vld1U8(buf[40:])
	f := nu.Vld1qF32(fl)
	neonFns := map[string]func(i int){
		"VminqU8":     func(int) { a = nu.VminqU8(a, b) },
		"VmlalU8":     func(int) { a = nu.VmlalU8(a, a64, b64) },
		"VrshrnNU16":  func(int) { sink64 = nu.VrshrnNU16(a, 4) },
		"Vld1qU8":     func(i int) { sink128 = nu.Vld1qU8(buf[i&1023:]) },
		"VcvtqS32F32": func(int) { sink128 = nu.VcvtqS32F32(f) },
		"VqmovnS32":   func(int) { sink64 = nu.VqmovnS32(a) },
		"Vld3U8":      func(i int) { sink3 = nu.Vld3U8(buf[i&1023:]) },
	}
	for _, name := range neonIntrinsics {
		m["neon."+name+".ns"] = nsPer(n, neonFns[name])
	}
	su := sse2.New(nil)
	x, y := su.LoaduSi128(buf), su.LoaduSi128(buf[16:])
	xf := su.LoaduPs(fl)
	sseFns := map[string]func(i int){
		"CvtpsEpi32": func(int) { sink128 = su.CvtpsEpi32(xf) },
		"PacksEpi32": func(int) { x = su.PacksEpi32(x, y) },
		"MaddEpi16":  func(int) { sink128 = su.MaddEpi16(x, y) },
		"MinEpu8":    func(int) { x = su.MinEpu8(x, y) },
		"LoaduSi128": func(i int) { sink128 = su.LoaduSi128(buf[i&1023:]) },
	}
	for _, name := range sse2Intrinsics {
		m["sse2."+name+".ns"] = nsPer(n, sseFns[name])
	}
	sink128, sink64 = a, a64
	sink128 = x
	return nil
}

// timeKernel returns the median of reps runs of k.
func timeKernel(o *cv.Ops, k kernelSpec, in *frame, dst *image.Mat, reps int) (time.Duration, error) {
	var ts []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := k.run(o, in, dst); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0))
	}
	return medianDuration(ts), nil
}

func kernelByName(name string) kernelSpec {
	for _, k := range kernelTable {
		if k.name == name {
			return k
		}
	}
	panic("unknown kernel " + name) // the tables above are fixed
}

// probeKernels times every kernel on every ISA serially and untraced, and
// counts the SIMD kernels' instructions with a trace counter. Both are per
// input pixel at 640x480.
func probeKernels(r *runCtx, m map[string]float64) error {
	in := makeFrame(probeRes, r.seed)
	px := float64(probeRes.Pixels())
	for _, k := range kernelTable {
		dst := k.newDst(probeRes.Width, probeRes.Height)
		for _, isa := range burstISAs {
			d, err := timeKernel(cv.NewOps(isa, nil), k, &in, dst, 3)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", k.name, isa, err)
			}
			m[fmt.Sprintf("cv.%s.%v.ns_per_px", k.name, isa)] = float64(d.Nanoseconds()) / px
		}
		for _, isa := range simdISAs {
			var tc trace.Counter
			if err := k.run(cv.NewOps(isa, &tc), &in, dst); err != nil {
				return fmt.Errorf("%s/%v traced: %w", k.name, isa, err)
			}
			m[fmt.Sprintf("cv.%s.%v.inst_per_px", k.name, isa)] = float64(tc.Total()) / px
		}
	}
	return nil
}

// probeTrace prices instruction accounting: one Counter.Record, and the
// traced over untraced time of each paper benchmark on NEON.
func probeTrace(r *runCtx, m map[string]float64) error {
	var tc trace.Counter
	op := trace.Op{Name: "vadd.i8", Class: trace.SIMDALU}
	m["trace.record.ns"] = nsPer(1<<18, func(int) { tc.Record(op) })
	in := makeFrame(probeRes, r.seed)
	for _, b := range paperBenches {
		k := kernelByName(paperKernel[b])
		dst := k.newDst(probeRes.Width, probeRes.Height)
		bare, err := timeKernel(cv.NewOps(cv.ISANEON, nil), k, &in, dst, 3)
		if err != nil {
			return err
		}
		var tc trace.Counter
		traced, err := timeKernel(cv.NewOps(cv.ISANEON, &tc), k, &in, dst, 3)
		if err != nil {
			return err
		}
		m["trace.overhead."+b] = float64(traced) / float64(bare)
	}
	return nil
}

// allocsPerCall returns the fewest heap allocations of one call of fn
// over n calls after a warm-up call, with the collector paused so pooled
// objects survive. Calls that miss a per-CPU pool allocate more; the
// fewest is the steady state, and it repeats exactly.
func allocsPerCall(n int, fn func() error) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := fn(); err != nil {
		return 0, err
	}
	fewest := math.MaxFloat64
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, float64(after.Mallocs-before.Mallocs))
	}
	return fewest, nil
}

// probePar prices row banding (NEON, serial over banded at one worker per
// CPU, and allocations per banded call) and fusion (scalar at 5 Mpx, fused
// over staged time, both banded).
func probePar(r *runCtx, m map[string]float64) error {
	in := makeFrame(parRes, r.seed)
	for _, name := range parKernels {
		k := kernelByName(name)
		dst := k.newDst(parRes.Width, parRes.Height)
		serial, err := timeKernel(cv.NewOps(cv.ISANEON, nil), k, &in, dst, 3)
		if err != nil {
			return err
		}
		banded := cv.NewOps(cv.ISANEON, nil)
		banded.SetParallel(cv.ParallelConfig{Workers: runtime.NumCPU()})
		bt, err := timeKernel(banded, k, &in, dst, 3)
		if err != nil {
			return err
		}
		m["par."+name+".speedup"] = float64(serial) / float64(bt)
		allocs, err := allocsPerCall(5, func() error { return k.run(banded, &in, dst) })
		if err != nil {
			return err
		}
		m["par."+name+".allocs"] = allocs
	}
	big := makeFrame(bigRes, r.seed)
	for _, name := range []string{"canny", "edges"} {
		k := kernelByName(name)
		dst := k.newDst(bigRes.Width, bigRes.Height)
		staged := cv.NewOps(cv.ISAScalar, nil)
		staged.SetParallel(cv.ParallelConfig{Workers: runtime.NumCPU()})
		st, err := timeKernel(staged, k, &big, dst, 3)
		if err != nil {
			return err
		}
		ft, err := timeKernel(burstOps(cv.ISAScalar), k, &big, dst, 3)
		if err != nil {
			return err
		}
		m["fuse."+name+".ratio"] = float64(ft) / float64(st)
	}
	return nil
}

// probeGuard prices the defence stack on NEON at 640x480: the guarded over
// bare time per paper benchmark, a full-rate audit's extra time per pixel,
// plane checksumming, and an attached fault plan over none.
func probeGuard(r *runCtx, m map[string]float64) error {
	in := makeFrame(probeRes, r.seed)
	px := float64(probeRes.Pixels())
	bare := map[string]time.Duration{}
	for _, b := range paperBenches {
		k := kernelByName(paperKernel[b])
		dst := k.newDst(probeRes.Width, probeRes.Height)
		bt, err := timeKernel(cv.NewOps(cv.ISANEON, nil), k, &in, dst, 3)
		if err != nil {
			return err
		}
		g := cv.NewOps(cv.ISANEON, nil)
		g.SetGuarded(true)
		gt, err := timeKernel(g, k, &in, dst, 3)
		if err != nil {
			return err
		}
		bare[b] = bt
		m["guard.overhead."+b] = float64(gt) / float64(bt)
	}
	gauss := kernelByName("gaussian")
	dst := gauss.newDst(probeRes.Width, probeRes.Height)
	a := cv.NewOps(cv.ISANEON, nil)
	a.SetAuditor(integrity.NewAuditor(integrity.AuditConfig{Rate: 1, Seed: 1}))
	at, err := timeKernel(a, gauss, &in, dst, 3)
	if err != nil {
		return err
	}
	m["integrity.audit.ns_per_px"] = float64((at - bare["GauBlu"]).Nanoseconds()) / px

	big := image.Synthetic(bigRes, r.seed)
	m["integrity.summat.ns_per_byte"] = nsPer(1, func(int) { _ = integrity.SumMat(big, 0) }) / float64(big.Bytes())

	f := cv.NewOps(cv.ISANEON, nil)
	f.SetFaultInjector(faults.NewPlan(faults.Config{Rate: campaignConfig.Rate, Seed: campaignConfig.Seed}))
	ft, err := timeKernel(f, gauss, &in, dst, 3)
	if err != nil {
		return err
	}
	m["faults.overhead"] = float64(ft) / float64(bare["GauBlu"])
	return nil
}

// probeMemo prices the request-path helpers at the serve workload's
// 320x240: content keys, a verified cache hit, input synthesis, and one
// histogram lookup with an exemplar.
func probeMemo(r *runCtx, m map[string]float64) error {
	res := image.Resolution{Width: serveW, Height: serveH}
	src := image.Synthetic(res, r.seed)
	var key memo.Key
	m["memo.key.ns_per_byte"] = nsPer(200, func(int) {
		key = memo.KeyFor("GaussianBlur", "neon", "g5x5,fuse=off", src)
	}) / float64(src.Bytes())

	c := memo.New(memo.Config{MaxBytes: 16 << 20, Shards: 1})
	dst := image.NewMat(serveW, serveH, image.U8)
	ops := cv.NewOps(cv.ISANEON, nil)
	if _, err := c.Do(context.Background(), key, dst, func(context.Context) error {
		return ops.GaussianBlur(src, dst)
	}); err != nil {
		return err
	}
	hit := true
	m["memo.hit.ns"] = nsPer(200, func(int) { hit = hit && c.Get(context.Background(), key, dst) })
	if !hit {
		return fmt.Errorf("memo probe: stored entry missed")
	}
	m["image.synth.ns_per_px"] = nsPer(20, func(i int) { _ = image.Synthetic(res, uint64(i)) }) / float64(res.Pixels())

	reg := obs.NewRegistry()
	buckets := []float64{0.001, 0.01, 0.1, 1}
	m["obs.observe.ns"] = nsPer(1<<15, func(i int) {
		reg.Histogram("request_seconds", buckets, obs.L("kernel", "GaussianBlur")).
			ObserveExemplar(float64(i&7)*1e-3, "trace", reg.Now())
	})
	return nil
}

// probeServe runs a short open- and closed-loop load against a fresh
// server and reads the serve and memo layer figures from it. Its outputs
// are not re-verified: the serve workload checks the same path.
func probeServe(r *runCtx, m map[string]float64) error {
	b, err := startServer(r.tr)
	if err != nil {
		return err
	}
	if err := warmUp(b, r.seed); err != nil {
		b.close()
		return err
	}
	sr := driveServe(b, r.tr, r.seed, 1500*time.Millisecond, time.Second)
	if err := b.close(); err != nil {
		return err
	}
	s := summarize(sr)
	m["serve.dispatch_ms.p50"] = s.dispatchP50
	m["serve.overhead_ms.p50"] = s.overheadP50
	m["serve.served_frac"] = s.servedFrac
	m["memo.hit_frac"] = s.hitFrac
	m["memo.coalesced_frac"] = s.coalescedFrac
	m["memo.evictions"] = s.evictions
	return nil
}

// probeTiming regenerates the paper grids cold in this process, with a
// span around every public call into the model, so the self times split
// the cold cost into instruction profiling, vectorizer analysis, cache
// replay and rendering. It must run before anything warms the model's
// process-wide memo tables.
func probeTiming(r *runCtx, m map[string]float64) error {
	tr := r.tr
	root := tr.begin(0, "timing", "probe.timing.cold")
	platforms := platform.Paper()
	for _, b := range paperBenches {
		for _, isa := range simdISAs {
			sp := tr.begin(root, "timing", "timing.HandProfile")
			_, err := timing.HandProfile(b, isa)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	for _, kb := range kernels.Benchmarks() {
		for _, pass := range kb.Passes {
			for _, target := range []vectorizer.Target{vectorizer.TargetNEON, vectorizer.TargetSSE2} {
				sp := tr.begin(root, "timing", "vectorizer.AnalyzeCached")
				_ = vectorizer.AnalyzeCached(pass.Loop, target)
				tr.end(sp)
			}
		}
	}
	for _, b := range paperBenches {
		for _, p := range platforms {
			for _, res := range image.Resolutions {
				sp := tr.begin(root, "timing", "timing.TrafficPerPixel")
				_, err := timing.TrafficPerPixel(b, p, res.Width)
				tr.end(sp)
				if err != nil {
					return err
				}
			}
		}
	}
	var buf bytes.Buffer
	if _, _, err := regenerate(tr, root, "timing", &buf); err != nil {
		return err
	}
	tr.end(root)

	var spans []span
	for _, s := range tr.snapshot() {
		if s.Trace == "timing" {
			spans = append(spans, s)
		}
	}
	st := selfTimes(spans)
	m["timing.traffic.s"] = st["timing.TrafficPerPixel"].Seconds()
	m["timing.hand_profile.s"] = st["timing.HandProfile"].Seconds()
	m["vectorizer.analyze.s"] = st["vectorizer.AnalyzeCached"].Seconds()
	m["harness.render.s"] = st["harness.render"].Seconds()

	hier, err := cache.NewHierarchy(platforms[0].M.Caches...)
	if err != nil {
		return err
	}
	const stream = 1 << 16
	m["cache.access.ns"] = nsPer(stream, func(i int) {
		// A 2-D stencil-like stream: rows 4 KiB apart, three taps per pixel.
		addr := uint64((i>>8)*4096 + (i&255)*4)
		hier.Access(addr, 4, false)
		hier.Access(addr+4096, 4, false)
		hier.Access(addr+1<<28, 2, true)
	}) / 3
	return nil
}

// probeLadder measures DetectEdges on NEON at 640x480 at each rung of the
// layer ladder, so each layer's cost is the ratio between adjacent rungs.
func probeLadder(r *runCtx, m map[string]float64) error {
	in := makeFrame(probeRes, r.seed)
	px := float64(probeRes.Pixels())
	k := kernelSpec{name: "edges", dst: image.U8, run: func(o *cv.Ops, f *frame, d *image.Mat) error {
		return o.DetectEdges(f.u8, d, 128) // the serve workload's threshold
	}}
	dst := k.newDst(probeRes.Width, probeRes.Height)
	rung := map[string]float64{}
	perPx := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / px }

	var meanNS float64
	for _, n := range neonIntrinsics {
		meanNS += m["neon."+n+".ns"] / float64(len(neonIntrinsics))
	}
	rung["intrinsic"] = m["cv.edges.neon.inst_per_px"] * meanNS

	o := cv.NewOps(cv.ISANEON, nil)
	steps := []struct {
		name  string
		apply func()
	}{
		{"serial", func() {}},
		{"banded", func() { o.SetParallel(cv.ParallelConfig{Workers: runtime.NumCPU()}) }},
		{"fused", func() { o.SetFuse(cv.FuseConfig{Enabled: true}) }},
		{"guarded", func() { o.SetGuarded(true) }},
		{"audited", func() { o.SetAuditor(integrity.NewAuditor(integrity.AuditConfig{Rate: 1, Seed: 1})) }},
	}
	for _, s := range steps {
		s.apply()
		d, err := timeKernel(o, k, &in, dst, 3)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", s.name, err)
		}
		rung[s.name] = perPx(d)
	}

	c := memo.New(memo.Config{MaxBytes: 16 << 20, Shards: 1})
	params := "t128,fuse=off"
	key := memo.KeyFor("DetectEdges", "neon", params, in.u8)
	if _, err := c.Do(context.Background(), key, dst, func(context.Context) error {
		return k.run(cv.NewOps(cv.ISANEON, nil), &in, dst)
	}); err != nil {
		return err
	}
	rung["memo_hit"] = nsPer(20, func(int) {
		c.Get(context.Background(), memo.KeyFor("DetectEdges", "neon", params, in.u8), dst)
	}) / px

	b, err := startServer(nil)
	if err != nil {
		return err
	}
	cl := newClient(b.base, 1, nil)
	req := reqSpec{"edges", "neon", r.seed}
	start := time.Now()
	var lat []float64
	for i := 0; i < 21; i++ { // the first request computes; the rest hit
		resp := cl.do(req, probeRes.Width, probeRes.Height, "ladder", start)
		if resp.status != http.StatusOK {
			cl.close()
			b.close()
			return fmt.Errorf("ladder http: status %d", resp.status)
		}
		if i > 0 {
			lat = append(lat, float64(resp.done-resp.sent))
		}
	}
	cl.close()
	if err := b.close(); err != nil {
		return err
	}
	rung["http"] = median(lat) / px

	for i, name := range ladderRungs {
		m["ladder."+name+".ns_per_px"] = rung[name]
		if i > 0 {
			prev := ladderRungs[i-1]
			m[fmt.Sprintf("ladder.%s_over_%s", name, prev)] = rung[name] / rung[prev]
		}
	}
	return nil
}

// printLadder adds the layer-ladder report: counted instructions per pixel
// beside measured time per pixel for every kernel and ISA, then the rungs.
func printLadder(r *runCtx, m map[string]float64) {
	r.reportf("## layer ladder: kernels at %s, serial and untraced", probeRes.Name)
	r.reportf("%-10s %-6s %12s %12s %12s", "kernel", "isa", "inst/px", "ns/px", "ns/inst")
	for _, k := range kernelTable {
		for _, isa := range burstISAs {
			ns := m[fmt.Sprintf("cv.%s.%v.ns_per_px", k.name, isa)]
			inst, ok := m[fmt.Sprintf("cv.%s.%v.inst_per_px", k.name, isa)]
			if !ok {
				r.reportf("%-10s %-6v %12s %12.3f %12s", k.name, isa, "-", ns, "-")
				continue
			}
			r.reportf("%-10s %-6v %12.3f %12.3f %12.3f", k.name, isa, inst, ns, ns/inst)
		}
	}
	r.reportf("## layer ladder: DetectEdges on NEON at %s", probeRes.Name)
	for i, name := range ladderRungs {
		line := fmt.Sprintf("%-10s %12.3f ns/px", name, m["ladder."+name+".ns_per_px"])
		if i > 0 {
			prev := ladderRungs[i-1]
			line += fmt.Sprintf("   x%.3f over %s", m[fmt.Sprintf("ladder.%s_over_%s", name, prev)], prev)
		}
		r.reportf("%s", line)
	}
}
