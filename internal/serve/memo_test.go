package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/harness"
	"simdstudy/internal/image"
	"simdstudy/internal/memo"
)

func newMemoServer(t *testing.T, kernels ...string) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{
		Memo: memo.Config{MaxBytes: 64 << 20, Kernels: kernels},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getMemo(t *testing.T, url string) (string, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, raw)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, raw, err)
	}
	return resp.Header.Get("X-Memo"), body
}

// TestMemoHitMissOverHTTP: the first request computes (X-Memo: miss), an
// identical second request is served from the cache (X-Memo: hit) with a
// byte-identical plane — same checksum — and both carry X-Request-ID from
// the standard response path.
func TestMemoHitMissOverHTTP(t *testing.T) {
	s, ts := newMemoServer(t)
	url := ts.URL + "/process?kernel=gaussian&width=96&height=64&isa=neon&seed=9"

	outcome1, body1 := getMemo(t, url)
	if outcome1 != "miss" || body1["memo"] != "miss" {
		t.Fatalf("first request X-Memo=%q memo=%v; want miss", outcome1, body1["memo"])
	}
	outcome2, body2 := getMemo(t, url)
	if outcome2 != "hit" || body2["memo"] != "hit" {
		t.Fatalf("second request X-Memo=%q memo=%v; want hit", outcome2, body2["memo"])
	}
	if body1["checksum"] != body2["checksum"] {
		t.Fatalf("hit checksum %v != computed checksum %v", body2["checksum"], body1["checksum"])
	}
	if st := s.Memo().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss", st)
	}

	// A different seed is different content: no false sharing.
	outcome3, body3 := getMemo(t, ts.URL+"/process?kernel=gaussian&width=96&height=64&isa=neon&seed=10")
	if outcome3 != "miss" {
		t.Fatalf("different content served %q", outcome3)
	}
	if body3["checksum"] == body1["checksum"] {
		t.Fatal("different inputs produced the same checksum (suspicious)")
	}
}

// TestMemoHitsCountTowardSLO: hit responses flow through the standard
// handleProcess wrapper, so the SLO tracker sees them exactly like
// computed responses.
func TestMemoHitsCountTowardSLO(t *testing.T) {
	s, ts := newMemoServer(t)
	url := ts.URL + "/process?kernel=threshold&width=64&height=48&isa=neon&seed=2"
	getMemo(t, url) // miss
	getMemo(t, url) // hit

	burns := s.slo.burnRates()
	if len(burns) == 0 {
		t.Fatal("no SLO windows tracked")
	}
	if got := burns[len(burns)-1].Requests; got != 2 {
		t.Fatalf("SLO tracker saw %d requests; want 2 (hits must not bypass it)", got)
	}
}

// TestMemoQuarantineInvalidation: force-opening a (kernel, ISA) breaker —
// the path every quarantine takes — drops that pair's cached entries, so
// the next identical request recomputes on the demoted (scalar) path.
func TestMemoQuarantineInvalidation(t *testing.T) {
	s, ts := newMemoServer(t)
	url := ts.URL + "/process?kernel=gaussian&width=96&height=64&isa=neon&seed=3"

	if outcome, _ := getMemo(t, url); outcome != "miss" {
		t.Fatalf("first = %q", outcome)
	}
	if outcome, _ := getMemo(t, url); outcome != "hit" {
		t.Fatalf("second = %q", outcome)
	}

	s.Breakers().ForceStuckOpen("GaussianBlur", "neon")
	if st := s.Memo().Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d; want 1", st.Invalidations)
	}
	outcome, body := getMemo(t, url)
	if outcome != "miss" {
		t.Fatalf("post-quarantine request = %q; want miss (entry invalidated)", outcome)
	}
	if body["breaker"] != "stuck-open" {
		t.Fatalf("breaker = %v; want stuck-open", body["breaker"])
	}
}

// TestMemoKernelEnableList: only listed kernels are memoized; the list
// accepts request names. Unmemoized kernels take the classic path with no
// X-Memo header.
func TestMemoKernelEnableList(t *testing.T) {
	_, ts := newMemoServer(t, "gaussian")
	if outcome, _ := getMemo(t, ts.URL+"/process?kernel=gaussian&width=64&height=48&isa=neon"); outcome != "miss" {
		t.Fatalf("enabled kernel = %q; want miss", outcome)
	}
	if outcome, _ := getMemo(t, ts.URL+"/process?kernel=threshold&width=64&height=48&isa=neon"); outcome != "" {
		t.Fatalf("disabled kernel carries X-Memo %q; want none", outcome)
	}
}

// TestMemoCoalescedOverHTTP: two concurrent identical requests execute
// the kernel once; the second is served a copy with X-Memo: coalesced.
// The leader is held inside its dispatch (testProcessStart) until the
// waiter has verifiably joined the flight.
func TestMemoCoalescedOverHTTP(t *testing.T) {
	s, ts := newMemoServer(t)
	gate := make(chan struct{})
	testProcessStart = func() { <-gate }
	defer func() { testProcessStart = nil }()

	url := ts.URL + "/process?kernel=median&width=96&height=64&isa=neon&seed=4"
	outcomes := make([]string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes[i] = resp.Header.Get("X-Memo")
		}(i)
		// Wait until this request is participating in the flight before
		// starting (or releasing past) the next step, so the roles are
		// deterministic: request 0 leads, request 1 coalesces.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, participants := s.Memo().InFlight(); participants > i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("request never joined the flight")
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	wg.Wait()

	if outcomes[0] != "miss" || outcomes[1] != "coalesced" {
		t.Fatalf("outcomes = %v; want [miss coalesced]", outcomes)
	}
	if st := s.Memo().Stats(); st.Misses != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v; want 1 miss, 1 coalesced", st)
	}
}

// TestMemoDebugView: /memo reports enabled state, stats, and per-pair
// breakdown; a memo-less server reports {"enabled": false}.
func TestMemoDebugView(t *testing.T) {
	_, ts := newMemoServer(t)
	getMemo(t, ts.URL+"/process?kernel=sobel&width=64&height=48&isa=neon")

	_, body := getMemo(t, ts.URL+"/memo")
	if body["enabled"] != true {
		t.Fatalf("/memo enabled = %v", body["enabled"])
	}
	stats, ok := body["stats"].(map[string]any)
	if !ok || stats["misses"].(float64) != 1 || stats["entries"].(float64) != 1 {
		t.Fatalf("/memo stats = %v", body["stats"])
	}
	kv, ok := body["kernels"].(map[string]any)
	if !ok {
		t.Fatalf("/memo kernels = %v", body["kernels"])
	}
	if _, ok := kv["SobelFilter/neon"]; !ok {
		t.Fatalf("/memo kernels missing SobelFilter/neon: %v", kv)
	}

	off := NewServer(Config{})
	defer off.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	_, body = getMemo(t, tsOff.URL+"/memo")
	if body["enabled"] != false {
		t.Fatalf("memo-less /memo enabled = %v", body["enabled"])
	}
}

// TestMemoStreamFrame: the SSE frame carries the memo block when
// memoization is on, with the lifetime tallies filled in.
func TestMemoStreamFrame(t *testing.T) {
	s, ts := newMemoServer(t)
	url := ts.URL + "/process?kernel=gaussian&width=64&height=48&isa=neon&seed=6"
	getMemo(t, url)
	getMemo(t, url)

	f := s.buildFrame(time.Minute)
	if f.Memo == nil {
		t.Fatal("stream frame missing memo block")
	}
	if f.Memo.Hits != 1 || f.Memo.Misses != 1 || f.Memo.Entries != 1 {
		t.Fatalf("frame memo = %+v; want 1 hit, 1 miss, 1 entry", f.Memo)
	}
	if f.Memo.HitRatePct <= 0 {
		t.Fatalf("frame memo hit rate = %v; want > 0", f.Memo.HitRatePct)
	}

	off := NewServer(Config{})
	defer off.Close()
	if f := off.buildFrame(time.Minute); f.Memo != nil {
		t.Fatal("memo-less frame carries a memo block")
	}
}

// TestMemoKernelsLookup: enable-list entries resolve through the binding
// table, request names and kernel names alike, and an unknown name is an
// error that lists the valid ones instead of a silently idle cache.
func TestMemoKernelsLookup(t *testing.T) {
	got, err := MemoKernels([]string{"gaussian", "Canny", "resize"})
	if err != nil || !reflect.DeepEqual(got, []string{"GaussianBlur", "Canny", "ResizeHalf"}) {
		t.Fatalf("MemoKernels = %v, %v; want [GaussianBlur Canny ResizeHalf]", got, err)
	}
	got, err = MemoKernels([]string{"gaussian", "gausian"})
	if err == nil || !strings.Contains(err.Error(), `"gausian"`) ||
		!strings.Contains(err.Error(), fmt.Sprint(KernelNames())) {
		t.Fatalf("typo err = %v; want one naming the typo and the valid names", err)
	}
	if !reflect.DeepEqual(got, []string{"GaussianBlur", "gausian"}) {
		t.Fatalf("typo list = %v; want the unknown name kept verbatim", got)
	}
}

// TestMemoKeysSharedWithHarness: the server and the fault-campaign harness
// key results through the same descriptor encoding. A campaign run into
// the server's cache makes the HTTP request for the same kernel,
// parameters, fusion and input a hit; a request whose bound parameters
// differ from the benchmark's misses.
func TestMemoKeysSharedWithHarness(t *testing.T) {
	res := image.Resolution{Width: 64, Height: 48}
	benches := []string{"ConvertFloatShort", "BinThr", "GauBlu", "SobFil", "EdgDet", "Canny"}
	for _, fused := range []bool{false, true} {
		fuse := cv.FuseConfig{Enabled: fused}
		s := NewServer(Config{Memo: memo.Config{MaxBytes: 64 << 20}, Fuse: fuse})
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		shared := map[cv.Call]bool{}
		for _, bench := range benches {
			cfg := harness.CampaignConfig{Burst: 1, Memo: s.Memo(), Fuse: fuse}
			if _, err := harness.RunFaultCampaign(context.Background(), bench, res, cfg); err != nil {
				t.Fatalf("campaign %s: %v", bench, err)
			}
			c, _ := cv.Benchmark(bench)
			shared[c] = true
		}
		hits := 0
		for name, c := range kernels {
			want := "miss"
			if shared[c] {
				want = "hit"
				hits++
			}
			url := fmt.Sprintf("%s/process?kernel=%s&width=%d&height=%d&isa=neon&seed=1",
				ts.URL, name, res.Width, res.Height)
			if outcome, _ := getMemo(t, url); outcome != want {
				t.Errorf("fuse=%v %s: X-Memo = %q; want %q", fused, name, outcome, want)
			}
		}
		if hits == 0 {
			t.Fatal("no request binds a benchmark's kernel and parameters; the test is vacuous")
		}
	}
}
