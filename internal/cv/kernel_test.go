package cv

import (
	"context"
	"strings"
	"testing"

	"simdstudy/internal/image"
)

// TestMemoKeyCoversEveryParameter: for every descriptor, changing any
// single declared parameter changes the memo key, as do the ISA, the
// fusion configuration and the input. Keys derive from the parameter
// values themselves, so no hand-written label can drift from them.
func TestMemoKeyCoversEveryParameter(t *testing.T) {
	res := image.Resolution{Width: 33, Height: 17}
	for _, c := range conformanceCalls(t) {
		src := c.Kernel.Input(res, 1)
		base := c.MemoKey(ISANEON, FuseConfig{}, src)
		if again := c.MemoKey(ISANEON, FuseConfig{}, c.Kernel.Input(res, 1)); again != base {
			t.Errorf("%v: equal inputs give different keys", c)
		}
		for i, q := range c.Kernel.Params {
			p := c.Params
			if p[i] < q.Max {
				p[i]++
			} else {
				p[i]--
			}
			if (Call{c.Kernel, p}).MemoKey(ISANEON, FuseConfig{}, src) == base {
				t.Errorf("%v: changing %s to %d leaves the key unchanged", c, q.Name, p[i])
			}
		}
		for name, k := range map[string]bool{
			"isa":   c.MemoKey(ISASSE2, FuseConfig{}, src) == base,
			"fuse":  c.MemoKey(ISANEON, FuseConfig{Enabled: true}, src) == base,
			"input": c.MemoKey(ISANEON, FuseConfig{}, c.Kernel.Input(res, 2)) == base,
		} {
			if k {
				t.Errorf("%v: changing the %s leaves the key unchanged", c, name)
			}
		}
	}
}

// TestRunRejectsBadParams: a value outside a declared range, or in a slot
// past the declared ones, fails validation before any row runs.
func TestRunRejectsBadParams(t *testing.T) {
	res := image.Resolution{Width: 33, Height: 17}
	for _, c := range conformanceCalls(t) {
		src := c.Kernel.Input(res, 1)
		bad := map[string]Params{}
		for i, q := range c.Kernel.Params {
			lo, hi := c.Params, c.Params
			lo[i], hi[i] = q.Min-1, q.Max+1
			bad[q.Name+" below range"], bad[q.Name+" above range"] = lo, hi
		}
		extra := c.Params
		extra[MaxParams-1] = 1
		if len(c.Kernel.Params) < MaxParams {
			bad["undeclared slot"] = extra
		}
		for what, p := range bad {
			err := c.Kernel.Run(context.Background(), NewOps(ISANEON, nil), src, newDst(c, res), p)
			if err == nil || !strings.Contains(err.Error(), c.Kernel.Name) {
				t.Errorf("%v: %s: err = %v, want a %s validation error", c, what, err, c.Kernel.Name)
			}
		}
	}
}
