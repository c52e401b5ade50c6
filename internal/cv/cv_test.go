package cv

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"simdstudy/internal/image"
	"simdstudy/internal/sat"
	"simdstudy/internal/trace"
)

var testRes = image.Resolution{Width: 67, Height: 41, Name: "67x41"} // odd sizes exercise SIMD tails

func TestISAString(t *testing.T) {
	if ISAScalar.String() != "scalar" || ISANEON.String() != "neon" || ISASSE2.String() != "sse2" {
		t.Fatal("ISA names")
	}
	if !strings.Contains(ISA(9).String(), "9") {
		t.Fatal("unknown ISA")
	}
}

func TestUseOptimizedToggle(t *testing.T) {
	o := NewOps(ISANEON, nil)
	if !o.UseOptimized() {
		t.Fatal("optimizations should start enabled")
	}
	o.SetUseOptimized(false)
	if o.UseOptimized() {
		t.Fatal("toggle off failed")
	}
	o.SetUseOptimized(true)
	if !o.UseOptimized() {
		t.Fatal("toggle on failed")
	}
	s := NewOps(ISAScalar, nil)
	if s.UseOptimized() {
		t.Fatal("scalar ISA never reports optimized")
	}
	if s.ISA() != ISAScalar {
		t.Fatal("ISA accessor")
	}
}

// --- Benchmark 1: convert ---

func TestConvertSSE2MatchesScalarExactly(t *testing.T) {
	src := image.SyntheticF32(testRes, 1)
	want := image.NewMat(testRes.Width, testRes.Height, image.S16)
	got := image.NewMat(testRes.Width, testRes.Height, image.S16)

	o := NewOps(ISASSE2, nil)
	o.SetUseOptimized(false)
	if err := o.ConvertF32ToS16(src, want); err != nil {
		t.Fatal(err)
	}
	o.SetUseOptimized(true)
	if err := o.ConvertF32ToS16(src, got); err != nil {
		t.Fatal(err)
	}
	if !want.EqualTo(got) {
		t.Fatalf("SSE2 hand path differs from scalar in %d pixels", want.DiffCount(got, 0))
	}
}

func TestConvertNEONTruncatesWithinOneOfScalar(t *testing.T) {
	src := image.SyntheticF32(testRes, 2)
	scalar := image.NewMat(testRes.Width, testRes.Height, image.S16)
	hand := image.NewMat(testRes.Width, testRes.Height, image.S16)

	o := NewOps(ISANEON, nil)
	o.SetUseOptimized(false)
	if err := o.ConvertF32ToS16(src, scalar); err != nil {
		t.Fatal(err)
	}
	o.SetUseOptimized(true)
	if err := o.ConvertF32ToS16(src, hand); err != nil {
		t.Fatal(err)
	}
	// vcvt truncates, ARM scalar rounds half away from zero: off by at
	// most 1, a documented divergence of the real NEON port.
	if d := scalar.DiffCount(hand, 1); d != 0 {
		t.Fatalf("NEON hand path differs from scalar by >1 in %d pixels", d)
	}
	// And the hand path must match the truncating reference exactly.
	for i, v := range src.F32Pix {
		want := sat.NarrowInt32ToInt16(sat.Float32ToInt32Truncate(v))
		if hand.S16Pix[i] != want {
			t.Fatalf("pixel %d: hand %d want %d (src %v)", i, hand.S16Pix[i], want, v)
		}
	}
}

func TestConvertTypeChecks(t *testing.T) {
	o := NewOps(ISAScalar, nil)
	f := image.NewMat(4, 4, image.F32)
	s := image.NewMat(4, 4, image.S16)
	u := image.NewMat(4, 4, image.U8)
	small := image.NewMat(2, 2, image.S16)
	if err := o.ConvertF32ToS16(u, s); err == nil {
		t.Error("U8 src should fail")
	}
	if err := o.ConvertF32ToS16(f, u); err == nil {
		t.Error("U8 dst should fail")
	}
	if err := o.ConvertF32ToS16(f, small); err == nil {
		t.Error("shape mismatch should fail")
	}
	if err := o.ConvertF32ToS16(f, s); err != nil {
		t.Error(err)
	}
}

// TestConvertInstructionCounts verifies the Section V arithmetic: the NEON
// hand loop retires 14 instructions per 8 pixels (8 SIMD + 6 overhead),
// while the scalar loop needs many more per pixel.
func TestConvertInstructionCounts(t *testing.T) {
	res := image.Resolution{Width: 160, Height: 10, Name: ""}
	src := image.SyntheticF32(res, 1)
	dst := image.NewMat(res.Width, res.Height, image.S16)

	var hand trace.Counter
	o := NewOps(ISANEON, &hand)
	if err := o.ConvertF32ToS16(src, dst); err != nil {
		t.Fatal(err)
	}
	pixels := uint64(res.Width * res.Height)
	iters := pixels / 8
	if got := hand.Total(); got != 14*iters {
		t.Errorf("NEON hand: %d instructions, want %d (14 per 8 px)", got, 14*iters)
	}

	var scalar trace.Counter
	os := NewOps(ISANEON, &scalar)
	os.SetUseOptimized(false)
	if err := os.ConvertF32ToS16(src, dst); err != nil {
		t.Fatal(err)
	}
	perPixelScalar := float64(scalar.Total()) / float64(pixels)
	perPixelHand := float64(hand.Total()) / float64(pixels)
	if perPixelScalar <= 2*perPixelHand {
		t.Errorf("scalar (%v/px) should be far costlier than hand (%v/px)",
			perPixelScalar, perPixelHand)
	}

	var sse trace.Counter
	ox := NewOps(ISASSE2, &sse)
	if err := ox.ConvertF32ToS16(src, dst); err != nil {
		t.Fatal(err)
	}
	if got := sse.Total(); got != 12*iters { // 6 SSE2 + 6 overhead
		t.Errorf("SSE2 hand: %d instructions, want %d", got, 12*iters)
	}
}

// --- Benchmark 2: threshold ---

func TestThresholdAllPathsAgree(t *testing.T) {
	src := image.Synthetic(testRes, 3)
	for _, typ := range []ThreshType{ThreshBinary, ThreshBinaryInv, ThreshTrunc, ThreshToZero, ThreshToZeroInv} {
		want := image.NewMat(testRes.Width, testRes.Height, image.U8)
		oScalar := NewOps(ISAScalar, nil)
		if err := oScalar.Threshold(src, want, 100, 255, typ); err != nil {
			t.Fatal(err)
		}
		for _, isa := range []ISA{ISANEON, ISASSE2} {
			got := image.NewMat(testRes.Width, testRes.Height, image.U8)
			o := NewOps(isa, nil)
			if err := o.Threshold(src, got, 100, 255, typ); err != nil {
				t.Fatal(err)
			}
			if !want.EqualTo(got) {
				t.Errorf("%v/%v: %d pixels differ", isa, typ, want.DiffCount(got, 0))
			}
		}
	}
}

func TestThresholdSemantics(t *testing.T) {
	src := image.NewMat(4, 1, image.U8)
	copy(src.U8Pix, []uint8{0, 100, 101, 255})
	dst := image.NewMat(4, 1, image.U8)
	o := NewOps(ISAScalar, nil)

	check := func(typ ThreshType, want []uint8) {
		t.Helper()
		if err := o.Threshold(src, dst, 100, 200, typ); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst.U8Pix[i] != want[i] {
				t.Errorf("%v pixel %d: got %d want %d", typ, i, dst.U8Pix[i], want[i])
			}
		}
	}
	check(ThreshBinary, []uint8{0, 0, 200, 200})
	check(ThreshBinaryInv, []uint8{200, 200, 0, 0})
	check(ThreshTrunc, []uint8{0, 100, 100, 100})
	check(ThreshToZero, []uint8{0, 0, 101, 255})
	check(ThreshToZeroInv, []uint8{0, 100, 0, 0})
}

func TestThresholdErrors(t *testing.T) {
	o := NewOps(ISAScalar, nil)
	u := image.NewMat(4, 4, image.U8)
	f := image.NewMat(4, 4, image.F32)
	if err := o.Threshold(f, u, 1, 2, ThreshTrunc); err == nil {
		t.Error("F32 src should fail")
	}
	if err := o.Threshold(u, f, 1, 2, ThreshTrunc); err == nil {
		t.Error("F32 dst should fail")
	}
	if err := o.Threshold(u, u, 1, 2, ThreshType(99)); err == nil {
		t.Error("unknown type should fail")
	}
	if err := o.Threshold(u, image.NewMat(2, 2, image.U8), 1, 2, ThreshTrunc); err == nil {
		t.Error("shape mismatch should fail")
	}
	if ThreshTrunc.String() != "trunc" || !strings.Contains(ThreshType(42).String(), "42") {
		t.Error("ThreshType names")
	}
}

// --- Benchmark 3: Gaussian blur ---

func TestGaussianKernelNormalized(t *testing.T) {
	sum := uint16(0)
	for _, w := range GaussKernel7 {
		sum += w
	}
	if sum != 256 {
		t.Fatalf("kernel sum %d, want 256", sum)
	}
	for i := 0; i < 3; i++ {
		if GaussKernel7[i] != GaussKernel7[6-i] {
			t.Fatal("kernel must be symmetric")
		}
	}
}

func TestGaussianAllPathsAgree(t *testing.T) {
	src := image.Synthetic(testRes, 4)
	want := image.NewMat(testRes.Width, testRes.Height, image.U8)
	o := NewOps(ISAScalar, nil)
	if err := o.GaussianBlur(src, want); err != nil {
		t.Fatal(err)
	}
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		got := image.NewMat(testRes.Width, testRes.Height, image.U8)
		oi := NewOps(isa, nil)
		if err := oi.GaussianBlur(src, got); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Errorf("%v: %d pixels differ from scalar", isa, want.DiffCount(got, 0))
		}
	}
}

func TestGaussianPreservesFlatRegions(t *testing.T) {
	src := image.NewMat(32, 32, image.U8)
	for i := range src.U8Pix {
		src.U8Pix[i] = 77
	}
	dst := image.NewMat(32, 32, image.U8)
	o := NewOps(ISANEON, nil)
	if err := o.GaussianBlur(src, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst.U8Pix {
		if v != 77 {
			t.Fatalf("pixel %d: flat region changed to %d", i, v)
		}
	}
}

func TestGaussianSmooths(t *testing.T) {
	// An impulse must spread and shrink.
	src := image.NewMat(33, 33, image.U8)
	src.U8Pix[16*33+16] = 255
	dst := image.NewMat(33, 33, image.U8)
	o := NewOps(ISASSE2, nil)
	if err := o.GaussianBlur(src, dst); err != nil {
		t.Fatal(err)
	}
	centre := dst.U8Pix[16*33+16]
	if centre >= 255 || centre == 0 {
		t.Fatalf("impulse centre after blur: %d", centre)
	}
	if dst.U8Pix[15*33+16] == 0 || dst.U8Pix[16*33+15] == 0 {
		t.Fatal("impulse did not spread to neighbours")
	}
	// Energy approximately conserved (kernel sums to 1).
	var sum int
	for _, v := range dst.U8Pix {
		sum += int(v)
	}
	if sum < 200 || sum > 300 {
		t.Fatalf("energy after blur: %d, want ~255", sum)
	}
}

func TestGaussianNarrowImages(t *testing.T) {
	// Widths below the vector body threshold must still work on all paths.
	for _, w := range []int{1, 2, 3, 7, 8, 11, 15} {
		src := image.Synthetic(image.Resolution{Width: w, Height: 5}, 1)
		want := image.NewMat(w, 5, image.U8)
		got := image.NewMat(w, 5, image.U8)
		s := NewOps(ISAScalar, nil)
		if err := s.GaussianBlur(src, want); err != nil {
			t.Fatal(err)
		}
		for _, isa := range []ISA{ISANEON, ISASSE2} {
			o := NewOps(isa, nil)
			if err := o.GaussianBlur(src, got); err != nil {
				t.Fatal(err)
			}
			if !want.EqualTo(got) {
				t.Errorf("width %d, %v: differs from scalar", w, isa)
			}
		}
	}
}

func TestGaussianErrors(t *testing.T) {
	o := NewOps(ISAScalar, nil)
	u := image.NewMat(8, 8, image.U8)
	f := image.NewMat(8, 8, image.F32)
	if err := o.GaussianBlur(f, u); err == nil {
		t.Error("F32 src should fail")
	}
	if err := o.GaussianBlur(u, f); err == nil {
		t.Error("F32 dst should fail")
	}
}

// --- Benchmark 4: Sobel ---

func TestSobelAllPathsAgree(t *testing.T) {
	src := image.Synthetic(testRes, 5)
	for _, dir := range [][2]int{{1, 0}, {0, 1}} {
		want := image.NewMat(testRes.Width, testRes.Height, image.S16)
		s := NewOps(ISAScalar, nil)
		if err := s.SobelFilter(src, want, dir[0], dir[1]); err != nil {
			t.Fatal(err)
		}
		for _, isa := range []ISA{ISANEON, ISASSE2} {
			got := image.NewMat(testRes.Width, testRes.Height, image.S16)
			o := NewOps(isa, nil)
			if err := o.SobelFilter(src, got, dir[0], dir[1]); err != nil {
				t.Fatal(err)
			}
			if !want.EqualTo(got) {
				t.Errorf("%v dx=%d dy=%d: %d pixels differ", isa, dir[0], dir[1], want.DiffCount(got, 0))
			}
		}
	}
}

func TestSobelDetectsVerticalEdge(t *testing.T) {
	// Left half dark, right half bright: dx response strong at the seam,
	// dy response zero.
	w, h := 32, 16
	src := image.NewMat(w, h, image.U8)
	for y := 0; y < h; y++ {
		for x := w / 2; x < w; x++ {
			src.U8Pix[y*w+x] = 200
		}
	}
	gx := image.NewMat(w, h, image.S16)
	gy := image.NewMat(w, h, image.S16)
	o := NewOps(ISANEON, nil)
	if err := o.SobelFilter(src, gx, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.SobelFilter(src, gy, 0, 1); err != nil {
		t.Fatal(err)
	}
	seam := gx.S16Pix[8*w+w/2-1]
	if seam != 200*4 {
		t.Errorf("gx at seam: %d, want 800", seam)
	}
	for i, v := range gy.S16Pix {
		if v != 0 {
			t.Fatalf("gy should be zero everywhere, pixel %d is %d", i, v)
		}
	}
}

func TestSobelZeroOnFlat(t *testing.T) {
	src := image.NewMat(24, 24, image.U8)
	for i := range src.U8Pix {
		src.U8Pix[i] = 123
	}
	dst := image.NewMat(24, 24, image.S16)
	o := NewOps(ISASSE2, nil)
	if err := o.SobelFilter(src, dst, 1, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst.S16Pix {
		if v != 0 {
			t.Fatalf("flat image gradient at %d: %d", i, v)
		}
	}
}

func TestSobelErrors(t *testing.T) {
	o := NewOps(ISAScalar, nil)
	u := image.NewMat(8, 8, image.U8)
	s := image.NewMat(8, 8, image.S16)
	if err := o.SobelFilter(u, s, 1, 1); err == nil {
		t.Error("dx=dy=1 unsupported")
	}
	if err := o.SobelFilter(s, s, 1, 0); err == nil {
		t.Error("S16 src should fail")
	}
	if err := o.SobelFilter(u, u, 1, 0); err == nil {
		t.Error("U8 dst should fail")
	}
}

// --- Benchmark 5: edge detection ---

func TestEdgesAllPathsAgree(t *testing.T) {
	src := image.Synthetic(testRes, 6)
	want := image.NewMat(testRes.Width, testRes.Height, image.U8)
	s := NewOps(ISAScalar, nil)
	if err := s.DetectEdges(src, want, 200); err != nil {
		t.Fatal(err)
	}
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		got := image.NewMat(testRes.Width, testRes.Height, image.U8)
		o := NewOps(isa, nil)
		if err := o.DetectEdges(src, got, 200); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Errorf("%v: %d pixels differ", isa, want.DiffCount(got, 0))
		}
	}
}

func TestEdgesBinaryOutput(t *testing.T) {
	// Wide enough (>128 columns) to guarantee the synthetic generator's
	// hard vertical edges appear in frame.
	res := image.Resolution{Width: 200, Height: 41}
	src := image.Synthetic(res, 7)
	dst := image.NewMat(res.Width, res.Height, image.U8)
	o := NewOps(ISANEON, nil)
	if err := o.DetectEdges(src, dst, 150); err != nil {
		t.Fatal(err)
	}
	zero, full := 0, 0
	for _, v := range dst.U8Pix {
		switch v {
		case 0:
			zero++
		case 255:
			full++
		default:
			t.Fatalf("non-binary output %d", v)
		}
	}
	if zero == 0 || full == 0 {
		t.Fatalf("degenerate edge map: %d zeros, %d edges", zero, full)
	}
}

func TestEdgesFindsTheEdge(t *testing.T) {
	w, h := 48, 24
	src := image.NewMat(w, h, image.U8)
	for y := 0; y < h; y++ {
		for x := w / 2; x < w; x++ {
			src.U8Pix[y*w+x] = 255
		}
	}
	dst := image.NewMat(w, h, image.U8)
	o := NewOps(ISASSE2, nil)
	if err := o.DetectEdges(src, dst, 400); err != nil {
		t.Fatal(err)
	}
	if dst.U8Pix[10*w+w/2] != 255 || dst.U8Pix[10*w+w/2-1] != 255 {
		t.Error("seam not detected")
	}
	if dst.U8Pix[10*w+4] != 0 || dst.U8Pix[10*w+w-4] != 0 {
		t.Error("flat regions misdetected")
	}
}

func TestGradientMagnitude(t *testing.T) {
	gx := image.NewMat(4, 1, image.S16)
	gy := image.NewMat(4, 1, image.S16)
	dst := image.NewMat(4, 1, image.S16)
	copy(gx.S16Pix, []int16{-3, 30000, -32768, 0})
	copy(gy.S16Pix, []int16{4, 30000, -32768, 0})
	o := NewOps(ISAScalar, nil)
	if err := o.GradientMagnitude(gx, gy, dst); err != nil {
		t.Fatal(err)
	}
	want := []int16{7, 32767, 32767, 0}
	for i := range want {
		if dst.S16Pix[i] != want[i] {
			t.Errorf("pixel %d: got %d want %d", i, dst.S16Pix[i], want[i])
		}
	}
	if err := o.GradientMagnitude(image.NewMat(4, 1, image.U8), gy, dst); err == nil {
		t.Error("U8 gx should fail")
	}
	if err := o.GradientMagnitude(gx, image.NewMat(4, 1, image.U8), dst); err == nil {
		t.Error("U8 gy should fail")
	}
	if err := o.GradientMagnitude(gx, gy, image.NewMat(4, 1, image.U8)); err == nil {
		t.Error("U8 dst should fail")
	}
	if err := o.GradientMagnitude(gx, gy, image.NewMat(2, 1, image.S16)); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestEdgesErrors(t *testing.T) {
	o := NewOps(ISAScalar, nil)
	u := image.NewMat(8, 8, image.U8)
	f := image.NewMat(8, 8, image.F32)
	if err := o.DetectEdges(f, u, 10); err == nil {
		t.Error("F32 src should fail")
	}
	if err := o.DetectEdges(u, f, 10); err == nil {
		t.Error("F32 dst should fail")
	}
}

// --- Properties ---

// Property: the three threshold paths agree on random images, thresholds
// and types.
func TestQuickThresholdPathsAgree(t *testing.T) {
	f := func(seed uint64, thresh, maxval uint8, typRaw uint8) bool {
		typ := ThreshType(typRaw % 5)
		res := image.Resolution{Width: 37, Height: 11}
		src := image.Synthetic(res, seed)
		want := image.NewMat(res.Width, res.Height, image.U8)
		if err := NewOps(ISAScalar, nil).Threshold(src, want, thresh, maxval, typ); err != nil {
			return false
		}
		for _, isa := range []ISA{ISANEON, ISASSE2} {
			got := image.NewMat(res.Width, res.Height, image.U8)
			if err := NewOps(isa, nil).Threshold(src, got, thresh, maxval, typ); err != nil {
				return false
			}
			if !want.EqualTo(got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Gaussian blur output is bounded by the input's min and max
// (convexity of the normalized kernel), on every path.
func TestQuickGaussianConvexity(t *testing.T) {
	f := func(seed uint64) bool {
		res := image.Resolution{Width: 29, Height: 13}
		src := image.Synthetic(res, seed)
		lo, hi := src.U8Pix[0], src.U8Pix[0]
		for _, v := range src.U8Pix {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for _, isa := range []ISA{ISAScalar, ISANEON, ISASSE2} {
			dst := image.NewMat(res.Width, res.Height, image.U8)
			if err := NewOps(isa, nil).GaussianBlur(src, dst); err != nil {
				return false
			}
			for _, v := range dst.U8Pix {
				// Fixed-point rounding can add at most 1 beyond the bound.
				if int(v) < int(lo)-1 || int(v) > int(hi)+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Sobel is linear in the input for the scalar path: sobel(2*img)
// == 2*sobel(img) when no overflow occurs.
func TestQuickSobelLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		res := image.Resolution{Width: 21, Height: 9}
		src := image.Synthetic(res, seed)
		half := image.NewMat(res.Width, res.Height, image.U8)
		for i, v := range src.U8Pix {
			half.U8Pix[i] = v / 2
		}
		// Build doubled = 2*half (guaranteed <= 254, no overflow).
		doubled := image.NewMat(res.Width, res.Height, image.U8)
		for i, v := range half.U8Pix {
			doubled.U8Pix[i] = 2 * v
		}
		o := NewOps(ISAScalar, nil)
		gHalf := image.NewMat(res.Width, res.Height, image.S16)
		gDouble := image.NewMat(res.Width, res.Height, image.S16)
		if err := o.SobelFilter(half, gHalf, 1, 0); err != nil {
			return false
		}
		if err := o.SobelFilter(doubled, gDouble, 1, 0); err != nil {
			return false
		}
		for i := range gHalf.S16Pix {
			if gDouble.S16Pix[i] != 2*gHalf.S16Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: convert paths agree within 1 LSB across ISAs for arbitrary
// float images (rounding-mode differences only).
func TestQuickConvertCrossISA(t *testing.T) {
	f := func(seed uint64) bool {
		res := image.Resolution{Width: 19, Height: 7}
		src := image.SyntheticF32(res, seed)
		outs := map[ISA]*image.Mat{}
		for _, isa := range []ISA{ISAScalar, ISANEON, ISASSE2} {
			dst := image.NewMat(res.Width, res.Height, image.S16)
			if err := NewOps(isa, nil).ConvertF32ToS16(src, dst); err != nil {
				return false
			}
			outs[isa] = dst
		}
		return outs[ISAScalar].DiffCount(outs[ISANEON], 1) == 0 &&
			outs[ISAScalar].DiffCount(outs[ISASSE2], 1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSIMDReducesInstructions checks the headline claim kernel-by-kernel:
// the hand-optimized path retires fewer dynamic instructions than the
// scalar path for every kernel descriptor on both ISAs.
func TestSIMDReducesInstructions(t *testing.T) {
	res := image.Resolution{Width: 128, Height: 64}
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		for _, c := range conformanceCalls(t) {
			src := c.Kernel.Input(res, 1)
			var hand, scalar trace.Counter
			if err := c.Run(context.Background(), NewOps(isa, &hand), src, newDst(c, res)); err != nil {
				t.Fatal(err)
			}
			os := NewOps(isa, &scalar)
			os.SetUseOptimized(false)
			if err := c.Run(context.Background(), os, src, newDst(c, res)); err != nil {
				t.Fatal(err)
			}
			if hand.Total() >= scalar.Total() {
				t.Errorf("%v/%v: hand %d >= scalar %d instructions",
					isa, c, hand.Total(), scalar.Total())
			}
		}
	}
}
