// Package serve is the hardened HTTP front-end over the image pipeline:
// a bounded-admission, deadline-aware server that dispatches the guarded
// SIMD kernels and degrades to scalar through the per-(kernel, ISA)
// circuit breakers instead of failing requests.
package serve

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
)

// maxDim bounds a single request dimension before the pixel-count check,
// so width*height cannot overflow and a single hostile parameter cannot
// request a gigabyte-scale allocation.
const maxDim = 1 << 20

// Limits are the decoder-side resource bounds. The zero value is not
// usable; Config.limits fills defaults.
type Limits struct {
	MaxPixels       int           // ceiling on width*height
	DefaultDeadline time.Duration // applied when deadline_ms is absent
	MaxDeadline     time.Duration // ceiling on client-requested deadlines
}

// Request is one decoded kernel-dispatch request.
type Request struct {
	Kernel   string // request kernel name, e.g. "gaussian" (see KernelNames)
	ISA      cv.ISA
	Width    int
	Height   int
	Seed     uint64
	Deadline time.Duration
}

// kernels binds each request kernel name to a kernel descriptor and the
// fixed parameter values the server runs it with.
var kernels = map[string]cv.Call{
	"gaussian":  {Kernel: cv.GaussianBlur},
	"sobel":     {Kernel: cv.SobelFilter, Params: cv.Params{1, 0}},
	"edges":     {Kernel: cv.DetectEdges, Params: cv.Params{128}},
	"canny":     {Kernel: cv.Canny, Params: cv.Params{60, 200}},
	"median":    {Kernel: cv.MedianBlur3x3},
	"resize":    {Kernel: cv.ResizeHalf},
	"threshold": {Kernel: cv.Threshold, Params: cv.Params{128, 255, int(cv.ThreshBinary)}},
	"convert":   {Kernel: cv.ConvertF32ToS16},
}

// KernelNames returns the request kernel names the decoder accepts,
// sorted.
func KernelNames() []string {
	names := make([]string, 0, len(kernels))
	for k := range kernels {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// MemoKernels resolves a memoization enable list — request names
// ("gaussian") or kernel names ("GaussianBlur") — to the kernel names the
// result cache keys on. A name that matches no kernel would match no
// request either and silently leave the cache unused, so it is an error;
// the returned list keeps it verbatim.
func MemoKernels(names []string) ([]string, error) {
	out := make([]string, len(names))
	var err error
	for i, name := range names {
		out[i] = name
		if c, ok := kernels[name]; ok {
			out[i] = c.Kernel.Name
		} else if cv.KernelByName(name) == nil && err == nil {
			err = fmt.Errorf("unknown kernel %q (want one of %v)", name, KernelNames())
		}
	}
	return out, err
}

func parseISA(s string) (cv.ISA, error) {
	switch s {
	case "", "neon":
		return cv.ISANEON, nil
	case "sse2":
		return cv.ISASSE2, nil
	case "scalar":
		return cv.ISAScalar, nil
	}
	return 0, fmt.Errorf("unknown isa %q (want scalar, neon, or sse2)", s)
}

func parseDim(q url.Values, key string) (int, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", key)
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: not an integer", key, raw)
	}
	if n < 1 || n > maxDim {
		return 0, fmt.Errorf("bad %s %d: want 1..%d", key, n, maxDim)
	}
	return n, nil
}

// ParseRequest decodes and bounds one request from URL query parameters.
// Every failure is a client error (HTTP 400); nothing is allocated from
// request-controlled sizes before the bounds checks pass.
func ParseRequest(q url.Values, lim Limits) (Request, error) {
	var r Request

	kernel := q.Get("kernel")
	if _, ok := kernels[kernel]; !ok {
		return r, fmt.Errorf("unknown kernel %q (want one of %v)", kernel, KernelNames())
	}
	r.Kernel = kernel

	w, err := parseDim(q, "width")
	if err != nil {
		return r, err
	}
	h, err := parseDim(q, "height")
	if err != nil {
		return r, err
	}
	if int64(w)*int64(h) > int64(lim.MaxPixels) {
		return r, fmt.Errorf("image %dx%d exceeds the %d pixel limit", w, h, lim.MaxPixels)
	}
	r.Width, r.Height = w, h

	r.ISA, err = parseISA(q.Get("isa"))
	if err != nil {
		return r, err
	}

	r.Seed = 1
	if raw := q.Get("seed"); raw != "" {
		r.Seed, err = strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return r, fmt.Errorf("bad seed %q: not an unsigned integer", raw)
		}
	}

	r.Deadline = lim.DefaultDeadline
	if raw := q.Get("deadline_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return r, fmt.Errorf("bad deadline_ms %q: want a positive integer", raw)
		}
		r.Deadline = time.Duration(ms) * time.Millisecond
	}
	if r.Deadline > lim.MaxDeadline {
		r.Deadline = lim.MaxDeadline
	}
	return r, nil
}

// checksum folds a destination plane into one comparable value so clients
// (and the load generator) can spot nondeterminism across ISA paths.
func checksum(m *image.Mat) uint64 {
	const prime = 1099511628211
	sum := uint64(14695981039346656037)
	switch m.Kind {
	case image.U8:
		for _, v := range m.U8Pix {
			sum = (sum ^ uint64(v)) * prime
		}
	case image.S16:
		for _, v := range m.S16Pix {
			sum = (sum ^ uint64(uint16(v))) * prime
		}
	case image.F32:
		for _, v := range m.F32Pix {
			sum = (sum ^ uint64(math.Float32bits(v))) * prime
		}
	}
	return sum
}
