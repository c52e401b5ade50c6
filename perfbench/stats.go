package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianDuration(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1)
// and whether at least minBeyond samples lie beyond it. A percentile
// without that support is not reported.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// latencySamples turns request outcomes into latency samples in
// milliseconds. A failed or refused request counts as exceeding the limit:
// it becomes +Inf, so any percentile that lands on it reads as over the
// limit.
func latencySamples(lat []time.Duration, ok []bool) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		if ok[i] {
			out[i] = float64(d) / float64(time.Millisecond)
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// classMedianGeomean returns the geometric mean over operation classes of
// each class's median latency (ms), with a median beyond limit (a failed
// request counts as +Inf) read as limit. Operations of different classes
// differ in cost by up to 15x; each class's median sits inside one cost
// cluster, so this typical latency does not jump when the median of all
// operations moves across the gap between cheap and expensive classes.
func classMedianGeomean(classes map[string][]float64, limit float64) float64 {
	if len(classes) == 0 {
		return 0
	}
	var logSum float64
	for _, s := range classes {
		logSum += math.Log(min(median(s), limit))
	}
	return math.Exp(logSum / float64(len(classes)))
}

// lowCost returns the least CPU time of repeated operations. The host is
// shared: while other guests load the same cores and caches, the same
// instructions take up to twice the CPU time, and the host stays loaded
// or unloaded for stretches of seconds to minutes. The load only ever
// adds time, so the least time of operations spread over a run estimates
// the cost of the work on an unloaded core, and repeats between runs
// that saw the host unloaded at all, where the median follows how loaded
// the host was during the run.
func lowCost(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return slices.Min(samples)
}

// classCosts summarizes operation costs by class: the geometric mean over
// classes of each class's lowCost, and their sum, the cost of one
// operation of every class.
func classCosts(classes map[string][]float64) (geomean, sum float64) {
	if len(classes) == 0 {
		return 0, 0
	}
	var logSum float64
	for _, s := range classes {
		c := lowCost(s)
		logSum += math.Log(c)
		sum += c
	}
	return math.Exp(logSum / float64(len(classes))), sum
}

// reqSpec is one /process request of the serve workload.
type reqSpec struct {
	kernel string
	isa    string
	seed   uint64
}

var (
	serveKernels = []string{"canny", "convert", "edges", "gaussian", "median", "resize", "sobel", "threshold"}
	serveISAs    = []string{"scalar", "neon", "sse2"}
)

const (
	popularSeeds = 8   // size of the Zipf-popular image population
	zipfS        = 1.2 // Zipf exponent of the popular draws
)

// mix draws serve requests in shuffled blocks. A popular mix's block holds
// every (kernel, ISA) pair twice, once with an image seed from a small
// Zipf-popular population (repeats the memo cache can hit) and once with a
// unique seed (always a miss); a unique mix's block holds every pair once,
// with a unique seed. Blocks keep the cost mix of any stretch of requests
// close to the workload's, whatever the seed. The stream is a pure
// function of (seed, stream, popular).
type mix struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	popular bool
	base    uint64 // first seed of the popular population
	unique  uint64 // next unique seed
	// block holds the pending draws: d < pairs is pair d with a popular
	// seed, d >= pairs is pair d-pairs with a unique seed.
	block []int
}

func newMix(seed, stream uint64, popular bool) *mix {
	rng := rand.New(rand.NewSource(int64(seed*1000003 + stream)))
	return &mix{
		rng:     rng,
		zipf:    rand.NewZipf(rng, zipfS, 1, popularSeeds-1),
		popular: popular,
		base:    seed*popularSeeds + 1,
		unique:  1<<40 | seed<<24 | stream<<20,
	}
}

// next returns the next request and whether its seed is unique.
func (m *mix) next() (reqSpec, bool) {
	pairs := len(serveKernels) * len(serveISAs)
	if len(m.block) == 0 {
		if m.popular {
			m.block = m.rng.Perm(2 * pairs)
		} else {
			m.block = m.rng.Perm(pairs)
			for i := range m.block {
				m.block[i] += pairs
			}
		}
	}
	d := m.block[0]
	m.block = m.block[1:]
	p := d % pairs
	r := reqSpec{kernel: serveKernels[p/len(serveISAs)], isa: serveISAs[p%len(serveISAs)]}
	if d < pairs {
		r.seed = m.base + m.zipf.Uint64()
		return r, false
	}
	r.seed = m.unique
	m.unique++
	return r, true
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due time.Duration // offset from the phase start
	req reqSpec
}

// dupFrac is the share of unique-seed arrivals that arrive twice at the
// same instant (a client retrying before the first answer), so concurrent
// identical misses exercise the memo layer's request coalescing.
const dupFrac = 0.05

// schedule precomputes the open-loop arrivals: Poisson at rate per second
// over dur, requests drawn from the seeded mix.
func schedule(seed uint64, rate float64, dur time.Duration) []arrival {
	m := newMix(seed, 0, true)
	gaps := rand.New(rand.NewSource(int64(seed)*7919 + 17))
	var out []arrival
	t := 0.0
	for {
		t += gaps.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		req, unique := m.next()
		out = append(out, arrival{due, req})
		if unique && gaps.Float64() < dupFrac {
			out = append(out, arrival{due, req})
		}
	}
}

// checksum64 is FNV-1a over a plane's elements, the fold serve reports in
// each response's checksum field.
func checksum64(u8 []uint8, s16 []int16, f32 []float32) uint64 {
	const prime = 1099511628211
	sum := uint64(14695981039346656037)
	for _, v := range u8 {
		sum = (sum ^ uint64(v)) * prime
	}
	for _, v := range s16 {
		sum = (sum ^ uint64(uint16(v))) * prime
	}
	for _, v := range f32 {
		sum = (sum ^ uint64(math.Float32bits(v))) * prime
	}
	return sum
}
