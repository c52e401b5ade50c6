package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{100, 0.5, 50, true},
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
	} {
		got, ok := percentile(samples(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestFailedRequestsCountOverTheLimit(t *testing.T) {
	const n = 2000
	lat := make([]time.Duration, n)
	ok := make([]bool, n)
	for i := range lat {
		lat[i] = time.Millisecond
		ok[i] = i%40 != 0 // 2.5% fail, with a fast recorded latency
	}
	s := latencySamples(lat, ok)
	p99, supported := percentile(s, 0.99)
	if !supported || !(p99 > float64(sloLimit/time.Millisecond)) {
		t.Fatalf("p99 with 2.5%% failures = %g (supported %v); want over the %v limit", p99, supported, sloLimit)
	}
	p50, _ := percentile(s, 0.5)
	if p50 != 1 {
		t.Fatalf("p50 = %g ms, want 1", p50)
	}
}

func TestClassMedianGeomean(t *testing.T) {
	classes := map[string][]float64{
		"cheap":  {1, 2, 2, 100},                // median 2
		"dear":   {8, 8, 9, 7, 8},               // median 8
		"failed": {3, math.Inf(1), math.Inf(1)}, // median over the limit
	}
	got := classMedianGeomean(classes, 250)
	want := math.Cbrt(2 * 8 * 250)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("classMedianGeomean = %g, want %g", got, want)
	}
}

func TestClassCostsTakeEachClassLeast(t *testing.T) {
	classes := map[string][]float64{
		"cheap": {4, 2, 8},  // least 2
		"dear":  {9, 32, 8}, // least 8
	}
	geomean, sum := classCosts(classes)
	if math.Abs(geomean-4) > 1e-9 || sum != 10 {
		t.Fatalf("classCosts = %g, %g; want 4, 10", geomean, sum)
	}
	if g, s := classCosts(nil); g != 0 || s != 0 {
		t.Fatalf("classCosts(nil) = %g, %g; want 0, 0", g, s)
	}
}

func TestSpanSelfTimeSubtractsCoveredTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	st := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	if st["parent"] != 50 {
		t.Errorf("parent self time = %d, want 50", st["parent"])
	}
	// 20 + (30-10) + 30 for the three children.
	if st["child"] != 70 {
		t.Errorf("child self time = %d, want 70", st["child"])
	}
	if st["grandchild"] != 10 {
		t.Errorf("grandchild self time = %d, want 10", st["grandchild"])
	}
}

func TestMixIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed, stream uint64, n int) ([]reqSpec, []bool) {
		m := newMix(seed, stream, true)
		reqs := make([]reqSpec, n)
		unique := make([]bool, n)
		for i := range reqs {
			reqs[i], unique[i] = m.next()
		}
		return reqs, unique
	}
	a, ua := draw(7, 0, 500)
	b, _ := draw(7, 0, 500)
	c, _ := draw(8, 0, 500)
	same := 0
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs for the same seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
		if ua[i] {
			if seen[a[i].seed] {
				t.Fatalf("unique seed %d drawn twice", a[i].seed)
			}
			seen[a[i].seed] = true
		} else if a[i].seed < 7*popularSeeds+1 || a[i].seed >= 8*popularSeeds+1 {
			t.Fatalf("popular seed %d outside the seed's population", a[i].seed)
		}
	}
	if same > len(a)/4 {
		t.Fatalf("seeds 7 and 8 drew %d identical requests of %d", same, len(a))
	}
	if len(seen) < 150 || len(seen) > 350 {
		t.Fatalf("%d unique-seed draws of 500; want about half", len(seen))
	}

	u := newMix(7, 1, false)
	pairs := map[reqSpec]bool{}
	for i := 0; i < len(serveKernels)*len(serveISAs); i++ {
		r, unique := u.next()
		if !unique {
			t.Fatal("unique mix drew a popular seed")
		}
		r.seed = 0
		pairs[r] = true
	}
	if len(pairs) != len(serveKernels)*len(serveISAs) {
		t.Fatalf("a unique-mix block covered %d of the %d kernel/ISA pairs", len(pairs), len(serveKernels)*len(serveISAs))
	}

	s1 := schedule(3, serveRate, 5*time.Second)
	s2 := schedule(3, serveRate, 5*time.Second)
	if len(s1) != len(s2) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("arrival %d differs for the same seed", i)
		}
		if i > 0 && s1[i].due < s1[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if n := float64(len(s1)); math.Abs(n-5*serveRate*(1+dupFrac/2)) > 5*math.Sqrt(5*serveRate) {
		t.Fatalf("%v arrivals in 5 s at %v/s", n, serveRate)
	}
}

// TestBenchmarkFileListsTheMetrics keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkFileListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	listed := map[string]bool{}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
		listed[w.Name] = true
	}
	for _, name := range offBenchmark {
		if listed[name] {
			t.Errorf("BENCHMARK.json lists workload %q, which offBenchmark leaves out", name)
		}
		listed[name] = true
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %q is neither in BENCHMARK.json nor in offBenchmark", name)
		}
	}
}
