// Package trace records dynamic instruction streams emitted by the NEON and
// SSE2 emulation layers and by the IR executor.
//
// The paper's central quantity is instructions retired per output pixel:
// its Section V shows the hand-written NEON loop retiring 14 instructions
// per 8 pixels while the auto-vectorized build needs many more because gcc
// fails to block the loop. Every emulated intrinsic call and every IR
// interpreter step reports into a Counter so those counts are measured, not
// assumed.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Class buckets instructions by the execution resource they occupy. The
// timing model prices each class per microarchitecture.
type Class int

// Instruction classes. SIMD classes occupy the vector pipe(s); scalar
// classes occupy the integer or scalar-FP pipes. Branch, Call and AddrCalc
// model loop and call overhead, which the paper's assembly analysis shows
// dominating the auto-vectorized builds.
const (
	SIMDLoad Class = iota
	SIMDStore
	SIMDALU     // vector integer add/sub/logic/compare/min/max
	SIMDMul     // vector multiplies and multiply-accumulate
	SIMDCvt     // vector conversions and saturating narrows/packs
	SIMDShuffle // shuffles, unpacks, combines, lane moves
	ScalarLoad
	ScalarStore
	ScalarALU // scalar integer ops, address arithmetic folded separately
	ScalarFP  // scalar floating point (VFP on ARM, x87/SSE-scalar on Intel)
	ScalarCvt // scalar int<->float conversion
	Branch
	Call // function call + return pair (e.g. the lrint fallback)
	AddrCalc
	Move // register-to-register moves
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	"simd.load", "simd.store", "simd.alu", "simd.mul", "simd.cvt",
	"simd.shuffle", "scalar.load", "scalar.store", "scalar.alu",
	"scalar.fp", "scalar.cvt", "branch", "call", "addr", "move",
}

// String returns the class mnemonic.
func (c Class) String() string {
	if c < 0 || int(c) >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// IsSIMD reports whether the class executes on the vector pipeline.
func (c Class) IsSIMD() bool {
	switch c {
	case SIMDLoad, SIMDStore, SIMDALU, SIMDMul, SIMDCvt, SIMDShuffle:
		return true
	}
	return false
}

// IsMemory reports whether the class touches memory.
func (c Class) IsMemory() bool {
	switch c {
	case SIMDLoad, SIMDStore, ScalarLoad, ScalarStore:
		return true
	}
	return false
}

// Op is a single recorded instruction occurrence.
type Op struct {
	Name  string // mnemonic, e.g. "vld1.32" or "cvtps2dq"
	Class Class
	Bytes int // memory bytes moved, zero for non-memory ops
}

// Counter accumulates a dynamic instruction trace. The zero value is ready
// to use. All methods are safe for concurrent use: the harness's per-cell
// goroutines may record into a shared Counter directly, though the cheaper
// fan-in pattern is one private Counter per goroutine folded into a shared
// one with Merge (with Snapshot to publish a consistent copy). SeqCap must
// be set before the first Record.
type Counter struct {
	mu          sync.Mutex
	counts      [numClasses]uint64
	bytesLoaded uint64
	bytesStored uint64
	opcodes     map[string]uint64

	// seq captures the first SeqCap recorded ops for listing generation
	// (Section V style analysis). Disabled unless SeqCap > 0.
	SeqCap int
	seq    []Op

	// events counts named out-of-band occurrences that are not
	// instructions — fault detections, retries, scalar fallbacks — so
	// robustness telemetry rides the same Counter plumbing
	// (Add/Reset/Summary) as the instruction stream.
	events map[string]uint64
}

// Record notes one occurrence of op.
func (t *Counter) Record(op Op) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[op.Class]++
	switch op.Class {
	case SIMDLoad, ScalarLoad:
		t.bytesLoaded += uint64(op.Bytes)
	case SIMDStore, ScalarStore:
		t.bytesStored += uint64(op.Bytes)
	}
	if t.opcodes == nil {
		t.opcodes = make(map[string]uint64)
	}
	t.opcodes[op.Name]++
	if t.SeqCap > 0 && len(t.seq) < t.SeqCap {
		t.seq = append(t.seq, op)
	}
}

// RecordN notes n occurrences of an op with no sequence capture. It is the
// fast path used for bulk accounting (e.g. loop overhead per iteration).
func (t *Counter) RecordN(name string, class Class, n uint64, bytesEach int) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[class] += n
	switch class {
	case SIMDLoad, ScalarLoad:
		t.bytesLoaded += n * uint64(bytesEach)
	case SIMDStore, ScalarStore:
		t.bytesStored += n * uint64(bytesEach)
	}
	if t.opcodes == nil {
		t.opcodes = make(map[string]uint64)
	}
	t.opcodes[name] += n
}

// Event notes one occurrence of a named non-instruction event.
func (t *Counter) Event(name string) {
	t.EventN(name, 1)
}

// EventN notes n occurrences of a named non-instruction event.
func (t *Counter) EventN(name string, n uint64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events == nil {
		t.events = make(map[string]uint64)
	}
	t.events[name] += n
}

// EventCount returns the count for a named event.
func (t *Counter) EventCount(name string) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events[name]
}

// Events returns a copy of the event counters.
func (t *Counter) Events() map[string]uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 {
		return nil
	}
	m := make(map[string]uint64, len(t.events))
	for k, v := range t.events {
		m[k] = v
	}
	return m
}

// Count returns the number of instructions recorded in class c.
func (t *Counter) Count(c Class) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[c]
}

// Opcode returns the dynamic count for a specific mnemonic.
func (t *Counter) Opcode(name string) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opcodes[name]
}

// Total returns the total dynamic instruction count.
func (t *Counter) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalLocked()
}

func (t *Counter) totalLocked() uint64 {
	var s uint64
	for _, c := range t.counts {
		s += c
	}
	return s
}

// SIMDTotal returns the count of vector-pipe instructions.
func (t *Counter) SIMDTotal() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.simdTotalLocked()
}

func (t *Counter) simdTotalLocked() uint64 {
	var s uint64
	for c := Class(0); c < numClasses; c++ {
		if c.IsSIMD() {
			s += t.counts[c]
		}
	}
	return s
}

// BytesLoaded returns total bytes read from memory.
func (t *Counter) BytesLoaded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytesLoaded
}

// BytesStored returns total bytes written to memory.
func (t *Counter) BytesStored() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytesStored
}

// Sequence returns the captured instruction prefix (up to SeqCap ops).
func (t *Counter) Sequence() []Op {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Op, len(t.seq))
	copy(out, t.seq)
	return out
}

// Reset zeroes the counter, retaining SeqCap.
func (t *Counter) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts = [numClasses]uint64{}
	t.bytesLoaded = 0
	t.bytesStored = 0
	t.opcodes = nil
	t.seq = nil
	t.events = nil
}

// Add accumulates other into t. It locks each counter in turn (never
// both at once), so concurrent cross-merges cannot deadlock.
func (t *Counter) Add(other *Counter) {
	if t == nil || other == nil || t == other {
		return
	}
	snap := other.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.counts {
		t.counts[i] += snap.counts[i]
	}
	t.bytesLoaded += snap.bytesLoaded
	t.bytesStored += snap.bytesStored
	if snap.opcodes != nil {
		if t.opcodes == nil {
			t.opcodes = make(map[string]uint64, len(snap.opcodes))
		}
		for k, v := range snap.opcodes {
			t.opcodes[k] += v
		}
	}
	if snap.events != nil {
		if t.events == nil {
			t.events = make(map[string]uint64, len(snap.events))
		}
		for k, v := range snap.events {
			t.events[k] += v
		}
	}
}

// Merge is Add under the name the fan-in pattern reads naturally as: each
// harness grid-cell goroutine records into its own Counter and merges it
// into the shared one when the cell completes.
func (t *Counter) Merge(other *Counter) { t.Add(other) }

// Snapshot returns a consistent copy of the counter, safe to read without
// synchronization while the original keeps recording.
func (t *Counter) Snapshot() *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &Counter{
		counts:      t.counts,
		bytesLoaded: t.bytesLoaded,
		bytesStored: t.bytesStored,
		SeqCap:      t.SeqCap,
	}
	if t.opcodes != nil {
		n.opcodes = make(map[string]uint64, len(t.opcodes))
		for k, v := range t.opcodes {
			n.opcodes[k] = v
		}
	}
	if t.events != nil {
		n.events = make(map[string]uint64, len(t.events))
		for k, v := range t.events {
			n.events[k] = v
		}
	}
	if t.seq != nil {
		n.seq = make([]Op, len(t.seq))
		copy(n.seq, t.seq)
	}
	return n
}

// Classes returns a snapshot of per-class counts indexed by Class.
func (t *Counter) Classes() [NumClasses]uint64 {
	if t == nil {
		return [NumClasses]uint64{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// PerPixel divides every count by pixels, returning instructions per output
// element — the unit used throughout the paper's Section V discussion.
func (t *Counter) PerPixel(pixels int) map[Class]float64 {
	m := make(map[Class]float64, NumClasses)
	if t == nil || pixels <= 0 {
		return m
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := Class(0); c < numClasses; c++ {
		if t.counts[c] > 0 {
			m[c] = float64(t.counts[c]) / float64(pixels)
		}
	}
	return m
}

// Summary renders a sorted per-opcode and per-class report.
func (t *Counter) Summary() string {
	if t == nil {
		return "(nil trace)"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%d simd=%d loadB=%d storeB=%d\n",
		t.totalLocked(), t.simdTotalLocked(), t.bytesLoaded, t.bytesStored)
	for c := Class(0); c < numClasses; c++ {
		if t.counts[c] > 0 {
			fmt.Fprintf(&sb, "  %-12s %d\n", c, t.counts[c])
		}
	}
	names := make([]string, 0, len(t.opcodes))
	for k := range t.opcodes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "    %-16s %d\n", k, t.opcodes[k])
	}
	if len(t.events) > 0 {
		evs := make([]string, 0, len(t.events))
		for k := range t.events {
			evs = append(evs, k)
		}
		sort.Strings(evs)
		for _, k := range evs {
			fmt.Fprintf(&sb, "  event %-12s %d\n", k, t.events[k])
		}
	}
	return sb.String()
}
