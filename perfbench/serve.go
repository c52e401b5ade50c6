package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/memo"
	"simdstudy/internal/serve"
)

const (
	serveW, serveH = 320, 240
	// serveRate is the open-loop arrival rate: about a third of what two
	// closed-loop clients sustain on a 2-vCPU host, so the server runs
	// well below capacity.
	serveRate = 80.0
	// sloLimit is simdserved's default latency objective; a failed or
	// refused request counts as exceeding it.
	sloLimit = 250 * time.Millisecond
	// memoBudget is smaller than the popular set (8 kernels x 3 ISAs x
	// popularSeeds planes of 19-150 KiB), so the cache both hits and evicts.
	memoBudget = 14 << 20
	// openShare is the share of the timed phase spent in the open loop;
	// the closed loop, which the end-to-end costs come from, takes the
	// rest.
	openShare = 0.25
	// windowBlocks is how many blocks of the closed loop's unique mix (one
	// request of each of the 24 kernel/ISA pairs) one cost window holds:
	// about a second of requests, long enough to include the garbage
	// collection they cause, short enough to fit in a stretch of time
	// when the host is not loaded (see lowCost).
	windowBlocks = 8
	// maxLateP99 is how late the open-loop generator may run at its 99th
	// percentile before the run is declared invalid: well above the
	// scheduling delays of a busy 2-vCPU host (under 20 ms), well below
	// the backlog of a generator that cannot keep up.
	maxLateP99 = 100 * time.Millisecond
)

// benchServer is an in-process serve.Server on a loopback listener.
type benchServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer builds the server with its default configuration plus
// memoization. In traced runs each request's handler call is a span,
// parented to the client span named in the X-Bench-Span header.
func startServer(tr *tracer) (*benchServer, error) {
	srv := serve.NewServer(serve.Config{Memo: memo.Config{MaxBytes: memoBudget}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = spanHandler(tr, h)
	}
	b := &benchServer{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { b.done <- b.hs.Serve(ln) }()
	return b, nil
}

// close shuts the listener down, waits for Serve to return and releases
// the server's background resources.
func (b *benchServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	b.srv.Close()
	return err
}

func spanHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get("X-Bench-Span")) // absent: a root span
		sp := tr.begin(parent, req.Header.Get("X-Request-ID"), "serve.handler")
		next.ServeHTTP(w, req)
		tr.end(sp)
	})
}

// client sends /process requests over at most conns connections.
type client struct {
	hc    *http.Client
	base  string
	conns int
	tr    *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t}, base: base, conns: conns, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one request's outcome. Times are offsets from the start of
// its phase.
type response struct {
	req        reqSpec
	w, h       int
	status     int // 0: transport error
	sent, done time.Duration
	cpuAt      time.Duration // process CPU time at sending, from the phase start (closed loop only)
	elapsedUS  int64         // the server's own dispatch time
	checksum   string
	memo       string
}

func (c *client) do(req reqSpec, w, h int, id string, phase time.Time) (resp response) {
	resp = response{req: req, w: w, h: h, sent: time.Since(phase)}
	sp := c.tr.begin(0, id, "client.request")
	defer func() {
		resp.done = time.Since(phase)
		c.tr.end(sp)
	}()
	url := fmt.Sprintf("%s/process?kernel=%s&width=%d&height=%d&isa=%s&seed=%d",
		c.base, req.kernel, w, h, req.isa, req.seed)
	hreq, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return resp
	}
	hreq.Header.Set("X-Request-ID", id)
	if sp != 0 {
		hreq.Header.Set("X-Bench-Span", strconv.Itoa(sp))
	}
	hr, err := c.hc.Do(hreq)
	if err != nil {
		return resp
	}
	defer hr.Body.Close()
	var body struct {
		Checksum  string `json:"checksum"`
		ElapsedUS int64  `json:"elapsed_us"`
		Memo      string `json:"memo"`
	}
	if hr.StatusCode == http.StatusOK && json.NewDecoder(hr.Body).Decode(&body) != nil {
		return resp
	}
	_, _ = io.Copy(io.Discard, hr.Body) // drain so the connection is reused
	resp.status = hr.StatusCode
	resp.checksum, resp.elapsedUS, resp.memo = body.Checksum, body.ElapsedUS, body.Memo
	return resp
}

// outPixels is the size of the response's output plane.
func (r response) outPixels() int {
	if r.req.kernel == "resize" {
		return (r.w / 2) * (r.h / 2)
	}
	return r.w * r.h
}

// openLoop sends the precomputed schedule: a generator releases each
// arrival at its due time to conns senders. Latency counts from the due
// time, so a stall also delays the requests queued behind it; lateness is
// how far the generator itself ran behind the schedule.
func openLoop(c *client, sched []arrival) (resps []response, late []time.Duration) {
	resps = make([]response, len(sched))
	late = make([]time.Duration, len(sched))
	// Buffered to the number of sends: the generator never waits on a busy
	// sender, so its lateness measures only itself.
	next := make(chan int, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				resps[j] = c.do(sched[j].req, serveW, serveH, fmt.Sprintf("o%d", j), start)
			}
		}()
	}
	for j, a := range sched {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late[j] = time.Since(start) - a.due
		next <- j
	}
	close(next)
	wg.Wait()
	return resps, late
}

// closedLoop runs one client that sends its next request when the
// previous one completes, until dur has passed. It draws the unique mix,
// so every request is a cache miss and every block of requests has the
// same cost mix whatever the seed. With one request in flight, the
// process's CPU time over a stretch of requests (client, server and
// runtime together) is their cost. It returns the responses and the
// phase's wall and CPU time.
func closedLoop(c *client, seed uint64, dur time.Duration) (out []response, elapsed, cpu time.Duration) {
	m := newMix(seed, 1, false)
	c0, start := cpuTime(), time.Now()
	for n := 0; time.Since(start) < dur; n++ {
		req, _ := m.next()
		at := cpuTime() - c0
		resp := c.do(req, serveW, serveH, fmt.Sprintf("c%d", n), start)
		resp.cpuAt = at
		out = append(out, resp)
	}
	return out, time.Since(start), cpuTime() - c0
}

// closedWindows cuts the closed loop into windows of windowBlocks whole
// blocks of the unique mix and returns each window's mean CPU time per
// request (ms) and output megapixels per CPU-second.
func closedWindows(sr serveRun) (reqMS, mpxPerCPUS []float64) {
	n := windowBlocks * len(serveKernels) * len(serveISAs)
	for i := 0; i+n <= len(sr.closed); i += n {
		end := sr.closedCPU
		if i+n < len(sr.closed) {
			end = sr.closed[i+n].cpuAt
		}
		cpu := end - sr.closed[i].cpuAt
		var px float64
		for _, resp := range sr.closed[i : i+n] {
			px += float64(resp.outPixels())
		}
		reqMS = append(reqMS, ms(cpu)/float64(n))
		mpxPerCPUS = append(mpxPerCPUS, px/1e6/cpu.Seconds())
	}
	return reqMS, mpxPerCPUS
}

// serveRun is one open-loop phase followed by one closed-loop phase.
type serveRun struct {
	sched         []arrival
	open, closed  []response
	late          []time.Duration
	closedElapsed time.Duration
	closedCPU     time.Duration
	before, after memo.Stats
}

func driveServe(b *benchServer, tr *tracer, seed uint64, openDur, closedDur time.Duration) serveRun {
	conns := runtime.NumCPU()
	c := newClient(b.base, conns, tr)
	defer c.close()
	sr := serveRun{sched: schedule(seed, serveRate, openDur), before: b.srv.Memo().Stats()}
	// The open loop runs on every CPU, as a deployed server would; the
	// closed loop, which the CPU costs come from, on the P count the
	// caller set.
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	sr.open, sr.late = openLoop(c, sr.sched)
	runtime.GOMAXPROCS(procs)
	sr.closed, sr.closedElapsed, sr.closedCPU = closedLoop(c, seed, closedDur)
	sr.after = b.srv.Memo().Stats()
	return sr
}

// serveSummary holds the figures derived from a serveRun.
type serveSummary struct {
	samples        int
	latClass       float64 // ms, classMedianGeomean of the open loop
	windows        int     // closed-loop cost windows (closedWindows)
	reqCPUMS       float64 // ms, CPU time per request of the least costly window
	reqCPUMedian   float64 // ms, the median window's CPU time per request
	latP50, latP99 float64 // ms; +Inf when a failed request is the percentile
	p99OK          bool    // at least minBeyond samples beyond p99
	lateP50        time.Duration
	lateP99        time.Duration
	closedRPS      float64 // closed-loop 200 responses per second
	closedPxTotal  float64 // closed-loop output pixels
	mpxPerS        float64 // closed-loop output megapixels per second
	mpxPerCPUS     float64 // output megapixels per CPU-second of the least costly window
	dispatchP50    float64 // ms, the server's elapsed_us
	overheadP50    float64 // ms, client latency minus elapsed_us
	servedFrac     float64 // 200 responses over requests
	hitFrac        float64 // memo hits over open-loop 200 responses
	coalescedFrac  float64 // coalesced waiters over open-loop 200 responses
	evictions      float64
	open200        int // 200 responses in each phase
	closed200      int
}

// openLatencies returns each open-loop request's latency from its due
// time and whether it succeeded.
func openLatencies(sr serveRun) ([]time.Duration, []bool) {
	lat := make([]time.Duration, len(sr.open))
	ok := make([]bool, len(sr.open))
	for i, resp := range sr.open {
		lat[i] = resp.done - sr.sched[i].due
		ok[i] = resp.status == http.StatusOK
	}
	return lat, ok
}

func summarize(sr serveRun) serveSummary {
	var s serveSummary
	samples := latencySamples(openLatencies(sr))
	s.samples = len(samples)
	classes := map[string][]float64{}
	for i, v := range samples {
		c := sr.open[i].req.kernel + "/" + sr.open[i].req.isa
		classes[c] = append(classes[c], v)
	}
	s.latClass = classMedianGeomean(classes, float64(sloLimit/time.Millisecond))
	s.latP50, _ = percentile(samples, 0.5)
	s.latP99, s.p99OK = percentile(samples, 0.99)
	late := make([]float64, len(sr.late))
	for i, d := range sr.late {
		late[i] = float64(d)
	}
	p50, _ := percentile(late, 0.5)
	p99, _ := percentile(late, 0.99)
	s.lateP50, s.lateP99 = time.Duration(p50), time.Duration(p99)

	var n200, hits, coalesced int
	var closedPx float64
	var dispatch, overhead []float64
	all := append(append([]response(nil), sr.open...), sr.closed...)
	for i, resp := range all {
		if resp.status != http.StatusOK {
			continue
		}
		n200++
		if i < len(sr.open) {
			s.open200++
			switch resp.memo {
			case "hit":
				hits++
			case "coalesced":
				coalesced++
			}
		} else {
			s.closed200++
			closedPx += float64(resp.outPixels())
		}
		d := float64(resp.elapsedUS) / 1e3
		dispatch = append(dispatch, d)
		overhead = append(overhead, float64(resp.done-resp.sent)/1e6-d)
	}
	s.closedRPS = float64(s.closed200) / sr.closedElapsed.Seconds()
	s.mpxPerS = closedPx / 1e6 / sr.closedElapsed.Seconds()
	s.closedPxTotal = closedPx
	reqMS, rates := closedWindows(sr)
	s.windows = len(reqMS)
	if s.windows > 0 {
		least := slices.Index(reqMS, lowCost(reqMS))
		s.reqCPUMS, s.mpxPerCPUS = reqMS[least], rates[least]
		s.reqCPUMedian = median(reqMS)
	}
	s.dispatchP50, _ = percentile(dispatch, 0.5)
	s.overheadP50, _ = percentile(overhead, 0.5)
	s.servedFrac = float64(n200) / float64(len(all))
	if s.open200 > 0 {
		s.hitFrac = float64(hits) / float64(s.open200)
		s.coalescedFrac = float64(coalesced) / float64(s.open200)
	}
	s.evictions = float64(sr.after.Evictions - sr.before.Evictions)
	return s
}

// warmUp sends one request per kernel and ISA with a seed the workload
// never draws, so every worker pool and code path is live before timing.
func warmUp(b *benchServer, seed uint64) error {
	c := newClient(b.base, 1, nil)
	defer c.close()
	start := time.Now()
	for _, k := range serveKernels {
		for _, isa := range serveISAs {
			resp := c.do(reqSpec{k, isa, 1<<62 | seed}, serveW, serveH, "warmup", start)
			if resp.status != http.StatusOK {
				return fmt.Errorf("warm-up %s/%s: status %d", k, isa, resp.status)
			}
		}
	}
	return nil
}

// runServe measures the in-process server: an open loop at serveRate for
// the first openShare of the timed phase, then a closed loop with one
// client. The open loop's latencies, timed from each request's due time,
// are reported; they are wall-clock figures and move with the host's
// load. One operation is one closed-loop request, and its cost the mean
// CPU time per request of the least costly window (closedWindows). Every 200
// response's checksum is checked afterwards against the same-ISA result
// recomputed through cv.Ops.
func runServe(r *runCtx, setups int) (outcome, error) {
	oc := outcome{params: map[string]any{
		"resolution": fmt.Sprintf("%dx%d", serveW, serveH), "rate_rps": serveRate,
		"open_loop_connections": runtime.NumCPU(), "closed_loop_clients": 1, "memo_bytes": memoBudget, "popular_seeds": popularSeeds,
		"zipf_s": zipfS, "dup_frac": dupFrac, "open_share": openShare,
	}}
	var b *benchServer
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return oc, err
			}
		}
		t := startSetup(i == 0)
		var err error
		if b, err = startServer(r.tr); err != nil {
			return oc, err
		}
		if err := warmUp(b, r.seed); err != nil {
			b.close()
			return oc, err
		}
		oc.endSetup(t)
	}
	openDur := time.Duration(float64(r.seconds) * openShare)
	sr := driveServe(b, r.tr, r.seed, openDur, r.seconds-openDur)
	if err := b.close(); err != nil {
		return oc, err
	}
	s := summarize(sr)
	if s.windows == 0 {
		return oc, fmt.Errorf("the closed loop sent %d requests, fewer than one cost window", len(sr.closed))
	}
	if s.lateP99 > maxLateP99 {
		r.invalid = append(r.invalid, fmt.Sprintf("open-loop generator ran %v late at p99 (limit %v)", s.lateP99, maxLateP99))
	}
	// The check is not timed: it runs on every CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	if err := verifyServe(r, append(sr.open, sr.closed...)); err != nil {
		return oc, err
	}

	oc.mpxPerS = s.mpxPerS
	oc.latMS = s.latClass
	oc.mpxPerCPUS = s.mpxPerCPUS
	oc.opCPUMS = s.reqCPUMS
	oc.opCPUMedianMS = s.reqCPUMedian
	oc.samples = s.windows
	r.reportf("serve open loop: %d sent, %d succeeded, %d failed", len(sr.open), s.open200, len(sr.open)-s.open200)
	r.reportf("serve closed loop: %d sent, %d succeeded, %d failed", len(sr.closed), s.closed200, len(sr.closed)-s.closed200)
	r.reportf("serve open loop: %d samples at %.0f req/s, p50 %.3f ms, per-class p50 geomean %.3f ms",
		s.samples, serveRate, s.latP50, s.latClass)
	if s.p99OK {
		r.reportf("serve open loop: p99 %.3f ms", s.latP99)
	} else {
		r.reportf("serve open loop: p99 not reported (fewer than %d samples beyond it)", minBeyond)
	}
	samples := latencySamples(openLatencies(sr))
	var deciles []string
	for q := 0.1; q < 0.95; q += 0.1 {
		v, _ := percentile(samples, q)
		deciles = append(deciles, fmt.Sprintf("%.2f", v))
	}
	r.reportf("serve open loop deciles (ms): %s", strings.Join(deciles, " "))
	r.reportf("serve generator lateness: p50 %v p99 %v", s.lateP50, s.lateP99)
	r.reportf("serve closed loop (1 client): %.1f req/s (200s), %.3f Mpx/s; over the phase %.3f Mpx/cpu-s, %.3f CPU-ms per request",
		s.closedRPS, s.mpxPerS, s.closedPxTotal/1e6/sr.closedCPU.Seconds(), ms(sr.closedCPU)/float64(len(sr.closed)))
	r.reportf("serve memo (open loop): hit %.3f coalesced %.3f; evictions %.0f; served %.4f",
		s.hitFrac, s.coalescedFrac, s.evictions, s.servedFrac)
	return oc, nil
}

// serveKernel mirrors one entry of the server's kernel table.
type serveKernel struct {
	src, dst image.Type
	half     bool
	run      func(o *cv.Ops, src, dst *image.Mat) error
}

var serveKernelSpecs = map[string]serveKernel{
	"gaussian": {image.U8, image.U8, false, func(o *cv.Ops, s, d *image.Mat) error { return o.GaussianBlur(s, d) }},
	"sobel":    {image.U8, image.S16, false, func(o *cv.Ops, s, d *image.Mat) error { return o.SobelFilter(s, d, 1, 0) }},
	"edges":    {image.U8, image.U8, false, func(o *cv.Ops, s, d *image.Mat) error { return o.DetectEdges(s, d, 128) }},
	"canny":    {image.U8, image.U8, false, func(o *cv.Ops, s, d *image.Mat) error { return o.Canny(s, d, 60, 200) }},
	"median":   {image.U8, image.U8, false, func(o *cv.Ops, s, d *image.Mat) error { return o.MedianBlur3x3(s, d) }},
	"resize":   {image.U8, image.U8, true, func(o *cv.Ops, s, d *image.Mat) error { return o.ResizeHalf(s, d) }},
	"threshold": {image.U8, image.U8, false, func(o *cv.Ops, s, d *image.Mat) error {
		return o.Threshold(s, d, 128, 255, cv.ThreshBinary)
	}},
	"convert": {image.F32, image.S16, false, func(o *cv.Ops, s, d *image.Mat) error { return o.ConvertF32ToS16(s, d) }},
}

func parseISA(s string) cv.ISA {
	switch s {
	case "neon":
		return cv.ISANEON
	case "sse2":
		return cv.ISASSE2
	}
	return cv.ISAScalar
}

// expectedChecksum recomputes a request's output in-process.
func expectedChecksum(req reqSpec, w, h int) (string, error) {
	k, ok := serveKernelSpecs[req.kernel]
	if !ok {
		return "", fmt.Errorf("unknown kernel %q", req.kernel)
	}
	res := image.Resolution{Width: w, Height: h}
	src := image.Synthetic(res, req.seed)
	if k.src == image.F32 {
		src = image.SyntheticF32(res, req.seed)
	}
	dw, dh := w, h
	if k.half {
		dw, dh = w/2, h/2
	}
	dst := image.NewMat(dw, dh, k.dst)
	if err := k.run(cv.NewOps(parseISA(req.isa), nil), src, dst); err != nil {
		return "", err
	}
	return strconv.FormatUint(checksum64(dst.U8Pix, dst.S16Pix, dst.F32Pix), 16), nil
}

// verifyServe counts every request: a non-200 response is a failed
// request, and a 200 whose checksum differs from the recomputed one is a
// wrong output. The recomputation runs after the timed phases, on one
// goroutine per CPU.
func verifyServe(r *runCtx, resps []response) error {
	type key struct {
		req  reqSpec
		w, h int
	}
	want := map[key]string{}
	for _, resp := range resps {
		if resp.status == http.StatusOK {
			want[key{resp.req, resp.w, resp.h}] = ""
		}
	}
	keys := make(chan key, len(want)) // sized to the number of sends
	for k := range want {
		keys <- k
	}
	close(keys)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				sum, err := expectedChecksum(k.req, k.w, k.h)
				mu.Lock()
				want[k] = sum
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, resp := range resps {
		if resp.status != http.StatusOK {
			r.attempted++
			r.failed++
			r.note("serve %s/%s seed %d: status %d", resp.req.kernel, resp.req.isa, resp.req.seed, resp.status)
			continue
		}
		exp := want[key{resp.req, resp.w, resp.h}]
		r.check(resp.checksum == exp, "serve %s/%s seed %d: checksum %s, recomputed %s",
			resp.req.kernel, resp.req.isa, resp.req.seed, resp.checksum, exp)
	}
	return nil
}
