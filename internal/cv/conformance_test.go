package cv

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/memo"
	"simdstudy/internal/trace"
)

// conformanceParams are the parameter sets the descriptor-driven tests run
// each parameterized kernel with; a kernel without parameters runs once
// with zero Params.
var conformanceParams = map[*Kernel][]Params{
	Threshold:   {{97, 255, int(ThreshBinary)}, {100, 200, int(ThreshTrunc)}},
	SobelFilter: {{1, 0}, {0, 1}},
	DetectEdges: {{60}},
	Canny:       {{20, 60}},
}

// conformanceCalls expands every descriptor into the calls the tests run.
// A descriptor that declares parameters but has no conformanceParams entry
// fails the test, so a new kernel cannot slip past the matrix.
func conformanceCalls(t testing.TB) []Call {
	t.Helper()
	var calls []Call
	for _, k := range Kernels {
		ps, ok := conformanceParams[k]
		if !ok {
			if len(k.Params) > 0 {
				t.Fatalf("%s declares parameters but has no conformanceParams entry", k.Name)
			}
			ps = []Params{{}}
		}
		for _, p := range ps {
			calls = append(calls, Call{Kernel: k, Params: p})
		}
	}
	return calls
}

func (c Call) String() string {
	if len(c.Kernel.Params) == 0 {
		return c.Kernel.Name
	}
	return c.Kernel.Name + "(" + c.Kernel.Encode(c.Params) + ")"
}

// newDst allocates c's destination plane for a res source.
func newDst(c Call, res image.Resolution) *image.Mat {
	w, h := c.Kernel.DstDims(res.Width, res.Height)
	return image.NewMat(w, h, c.Kernel.Dst)
}

// traceCounts is the part of a trace the banding, fusion, guard and audit
// layers must leave unchanged.
type traceCounts struct {
	classes       [trace.NumClasses]uint64
	events        map[string]uint64
	loaded, store uint64
}

func countsOf(tr *trace.Counter) traceCounts {
	return traceCounts{tr.Classes(), tr.Events(), tr.BytesLoaded(), tr.BytesStored()}
}

// conformanceExec is one execution layout of the matrix.
type conformanceExec struct {
	name string
	par  ParallelConfig
	fuse bool
}

var conformanceExecs = []conformanceExec{
	{name: "serial"},
	{name: "banded2", par: ParallelConfig{Workers: 2, MinRowsPerBand: 1}},
	{name: "banded7", par: ParallelConfig{Workers: 7, MinRowsPerBand: 1}},
	{name: "fused", fuse: true},
}

var conformanceModes = []string{"plain", "guarded", "audited", "memo-hit"}

// TestConformanceMatrix runs every descriptor on every ISA, serially,
// banded over 2 and 7 workers and fused (where the kernel has a fused
// sweep), at two odd sizes, plain, guarded, audited at rate 1 and served
// from a memo hit. Every cell's bytes must match the same-ISA scalar
// referee within the kernel's Tol and equal the serial-plain cell's
// exactly; every non-memo cell must record the serial-plain cell's
// instruction-class, event and byte counts and no guard or audit
// intervention.
func TestConformanceMatrix(t *testing.T) {
	sizes := []image.Resolution{
		{Width: 33, Height: 17, Name: "33x17"},
		{Width: 129, Height: 97, Name: "129x97"},
	}
	ctx := context.Background()
	for _, c := range conformanceCalls(t) {
		for _, isa := range []ISA{ISAScalar, ISANEON, ISASSE2} {
			for si, res := range sizes {
				src := c.Kernel.Input(res, uint64(si+1))
				ref := NewOps(isa, nil)
				ref.SetUseOptimized(false)
				want := newDst(c, res)
				if err := c.Run(ctx, ref, src, want); err != nil {
					t.Fatalf("%v/%v/%s referee: %v", c, isa, res.Name, err)
				}

				var base *image.Mat
				var baseCounts traceCounts
				for _, ex := range conformanceExecs {
					if ex.fuse && c.Kernel.fused == nil {
						continue
					}
					for _, mode := range conformanceModes {
						cell := fmt.Sprintf("%v/%v/%s/%s/%s", c, isa, res.Name, ex.name, mode)
						tr := &trace.Counter{}
						o := NewOps(isa, tr)
						if ex.par.Workers > 0 {
							o.SetParallel(ex.par)
						}
						if ex.fuse {
							o.SetFuse(FuseConfig{Enabled: true, StripRows: 5})
						}
						switch mode {
						case "guarded":
							o.SetGuarded(true)
						case "audited":
							o.SetAuditor(integrity.NewAuditor(integrity.AuditConfig{Rate: 1, Seed: 1}))
						}

						got := newDst(c, res)
						if mode == "memo-hit" {
							got = memoHit(t, cell, c, o, src, res)
						} else if err := c.Run(ctx, o, src, got); err != nil {
							t.Fatalf("%s: %v", cell, err)
						}

						if d := want.DiffCount(got, c.Kernel.Tol(isa)); d != 0 {
							t.Errorf("%s: %d pixels differ from the scalar referee beyond tol %d",
								cell, d, c.Kernel.Tol(isa))
						}
						if base == nil {
							base, baseCounts = got, countsOf(tr)
							continue
						}
						if !base.EqualTo(got) {
							t.Errorf("%s: %d pixels differ from serial-plain", cell, base.DiffCount(got, 0))
						}
						if mode == "memo-hit" {
							continue
						}
						if counts := countsOf(tr); !reflect.DeepEqual(counts, baseCounts) {
							t.Errorf("%s: trace counts differ from serial-plain\nserial-plain: %+v\ncell:         %+v",
								cell, baseCounts, counts)
						}
						if n := len(o.Faults()); n != 0 {
							t.Errorf("%s: %d spurious guard records: %v", cell, n, o.Faults())
						}
						if a := o.Auditor(); a != nil {
							if a.Mismatches() != 0 {
								t.Errorf("%s: %d spurious audit mismatches", cell, a.Mismatches())
							}
							if isa != ISAScalar && a.Sampled() == 0 {
								t.Errorf("%s: rate-1 auditor sampled nothing", cell)
							}
						}
					}
				}
			}
		}
	}
}

// memoHit computes c through a fresh cache, then serves it again and
// returns the hit's plane.
func memoHit(t *testing.T, cell string, c Call, o *Ops, src *image.Mat, res image.Resolution) *image.Mat {
	t.Helper()
	cache := memo.New(memo.Config{MaxBytes: 1 << 24, Shards: 1})
	key := c.MemoKey(o.ISA(), o.Fuse(), src)
	for i, wantOutcome := range []memo.Outcome{memo.Miss, memo.Hit} {
		dst := newDst(c, res)
		outcome, err := cache.Do(context.Background(), key, dst, func(ctx context.Context) error {
			return c.Run(ctx, o, src, dst)
		})
		if err != nil {
			t.Fatalf("%s: memo pass %d: %v", cell, i, err)
		}
		if outcome != wantOutcome {
			t.Fatalf("%s: memo pass %d = %v, want %v", cell, i, outcome, wantOutcome)
		}
		if outcome == memo.Hit {
			return dst
		}
	}
	return nil
}
