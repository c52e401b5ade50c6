// Package obs is the repo's dependency-free observability core: a
// thread-safe metrics registry (counters, gauges, fixed-bucket histograms,
// all with label families), hierarchical spans with wall-clock,
// modeled-cycle and instruction-delta attribution, and machine-readable
// exporters (Prometheus text exposition, JSONL event stream, Chrome
// trace_event JSON for chrome://tracing / Perfetto).
//
// The paper's argument rests on measured dynamic quantities — instructions
// retired per pixel, per-class pipe occupancy, AUTO/HAND timing ratios —
// and the guard/fault machinery adds detections, retries, fallbacks and
// breaker transitions on top. This package turns all of them into a single
// queryable artifact per run instead of ad-hoc text tables: the emulation
// units, the cv kernels, the IR executor and the harness all report here.
//
// Everything is safe for concurrent use. Counters are lock-free atomics;
// histograms, the event log and the span log are mutex-guarded. A Registry
// built in one goroutine per worker can be folded into a shared one with
// Merge, mirroring the trace.Counter fan-in pattern.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Label is one name=value pair of a metric family or span attribute.
type Label struct {
	Key, Value string
}

// L builds a Label; it keeps call sites short.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// sortLabels returns a copy of labels sorted by key. Prometheus series
// identity ignores label order, so the registry canonicalizes eagerly.
func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// seriesKey renders the canonical identity of one labeled series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0xff)
		sb.WriteString(l.Key)
		sb.WriteByte(0xfe)
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// Event is one out-of-band occurrence in the event stream: a fault
// detection, a retry, a grid-cell failure. Fields hold arbitrary
// JSON-encodable payload.
type Event struct {
	Time   time.Time
	Name   string
	Fields map[string]any
}

// Registry holds every metric family, completed span and emitted event of
// one observed run. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	clock func() time.Time
	start time.Time

	counters map[string]*counterEntry
	gauges   map[string]*gaugeEntry
	hists    map[string]*histEntry

	events []Event
	spans  []SpanRecord

	nextSpanID int
}

type counterEntry struct {
	name   string
	labels []Label
	c      *Counter
}

type gaugeEntry struct {
	name   string
	labels []Label
	g      *Gauge
}

type histEntry struct {
	name   string
	labels []Label
	h      *Histogram
}

// NewRegistry returns an empty registry stamped with the current time.
func NewRegistry() *Registry {
	r := &Registry{
		clock:    time.Now,
		counters: map[string]*counterEntry{},
		gauges:   map[string]*gaugeEntry{},
		hists:    map[string]*histEntry{},
	}
	r.start = r.clock()
	return r
}

// SetClock replaces the registry's time source and re-stamps the start
// time; call it before recording anything. Tests use it for deterministic
// golden output.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = now
	r.start = now()
}

func (r *Registry) now() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock()
}

// Now returns the registry clock's current time: wall clock by default,
// the injected clock under SetClock. Exemplar timestamps and time-series
// samples read it so everything timestamped against one registry is
// mutually consistent — and deterministic in tests.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.now()
}

// Counter returns (creating on first use) the counter for name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[key]
	if !ok {
		e = &counterEntry{name: name, labels: labels, c: &Counter{}}
		r.counters[key] = e
	}
	return e.c
}

// Gauge returns (creating on first use) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.gauges[key]
	if !ok {
		e = &gaugeEntry{name: name, labels: labels, g: &Gauge{}}
		r.gauges[key] = e
	}
	return e.g
}

// Histogram returns (creating on first use) the histogram for name and
// labels. buckets are inclusive upper bounds in ascending order; nil
// selects DefBuckets. The bucket layout is fixed by the first caller.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hists[key]
	if !ok {
		e = &histEntry{name: name, labels: labels, h: newHistogram(buckets)}
		r.hists[key] = e
	}
	return e.h
}

// Emit appends one event to the JSONL stream. Fields must be
// JSON-encodable; nil is allowed.
func (r *Registry) Emit(name string, fields map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Time: r.clock(), Name: name, Fields: fields})
}

// Events returns a copy of the emitted events in emission order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Spans returns a copy of the completed span records.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	return out
}

// Snapshot is a flat view of the registry's scalar samples, keyed by the
// rendered series id (name{label="value",...}). Histograms contribute
// their _count and _sum. Grid cells carry one of these per cell.
type Snapshot map[string]float64

// Snapshot captures the current value of every counter, gauge and
// histogram aggregate.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Snapshot, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for _, e := range r.counters {
		s[renderSeries(e.name, e.labels)] = float64(e.c.Value())
	}
	for _, e := range r.gauges {
		s[renderSeries(e.name, e.labels)] = e.g.Value()
	}
	for _, e := range r.hists {
		count, sum := e.h.CountSum()
		s[renderSeries(e.name+"_count", e.labels)] = float64(count)
		s[renderSeries(e.name+"_sum", e.labels)] = sum
	}
	return s
}

// Delta returns the per-series difference s - prev: the amount every
// series advanced between two snapshots. Series missing from prev are
// treated as starting at zero (they were created inside the window);
// series present only in prev are dropped (registries never delete
// series, so that can only mean prev came from a different registry).
// Counter deltas divided by the wall-clock gap between the snapshots are
// the windowed rates the time-series store serves.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v - prev[k]
	}
	return out
}

// Filter returns the subset of the snapshot whose series names start with
// prefix. Determinism checks use it to compare the replay-stable families
// (fault_*, guard_*) of two runs while ignoring wall-clock series.
func (s Snapshot) Filter(prefix string) Snapshot {
	out := make(Snapshot)
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			out[k] = v
		}
	}
	return out
}

// HistSample is a point-in-time copy of one histogram: per-bucket counts
// (non-cumulative, final element the +Inf bucket), the bucket upper
// bounds, and the count/sum aggregates. The time-series store diffs two of
// these to derive windowed quantiles.
type HistSample struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Sample is one clock-stamped structured snapshot of a registry, the unit
// the time-series store rings: monotone series (counters plus histogram
// _count/_sum) separated from gauges so rate computation never sees a
// value that may legally decrease, and full per-bucket histogram state for
// quantile derivation.
type Sample struct {
	Time     time.Time
	Counters Snapshot
	Gauges   Snapshot
	Hists    map[string]HistSample
}

// Sample captures a structured snapshot stamped with the registry clock.
func (r *Registry) Sample() Sample {
	if r == nil {
		return Sample{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Sample{
		Time:     r.clock(),
		Counters: make(Snapshot, len(r.counters)+2*len(r.hists)),
		Gauges:   make(Snapshot, len(r.gauges)),
		Hists:    make(map[string]HistSample, len(r.hists)),
	}
	for _, e := range r.counters {
		s.Counters[renderSeries(e.name, e.labels)] = float64(e.c.Value())
	}
	for _, e := range r.gauges {
		s.Gauges[renderSeries(e.name, e.labels)] = e.g.Value()
	}
	for _, e := range r.hists {
		key := renderSeries(e.name, e.labels)
		count, sum := e.h.CountSum()
		s.Counters[renderSeries(e.name+"_count", e.labels)] = float64(count)
		s.Counters[renderSeries(e.name+"_sum", e.labels)] = sum
		s.Hists[key] = HistSample{
			Bounds: e.h.Bounds(),
			Counts: e.h.Buckets(),
			Count:  count,
			Sum:    sum,
		}
	}
	return s
}

// renderSeries prints name{k="v",...} with Prometheus escaping.
func renderSeries(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Merge folds other's metrics, events and spans into r: counters and
// histogram buckets add, gauges take other's latest value, events append,
// spans append with their ids re-based so they stay unique. Workers build
// a private Registry each and merge into a shared one; Merge locks the
// source only long enough to snapshot it, so concurrent merges into one
// destination are safe.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil || r == other {
		return
	}
	// Snapshot the source without holding r's lock (no nested locking, so
	// no lock-order deadlock between two registries).
	other.mu.Lock()
	counters := make([]counterEntry, 0, len(other.counters))
	for _, e := range other.counters {
		counters = append(counters, counterEntry{name: e.name, labels: e.labels, c: e.c})
	}
	gauges := make([]gaugeEntry, 0, len(other.gauges))
	for _, e := range other.gauges {
		gauges = append(gauges, gaugeEntry{name: e.name, labels: e.labels, g: e.g})
	}
	hists := make([]histEntry, 0, len(other.hists))
	for _, e := range other.hists {
		hists = append(hists, histEntry{name: e.name, labels: e.labels, h: e.h})
	}
	events := make([]Event, len(other.events))
	copy(events, other.events)
	spans := make([]SpanRecord, len(other.spans))
	copy(spans, other.spans)
	other.mu.Unlock()

	for _, e := range counters {
		r.Counter(e.name, e.labels...).Add(e.c.Value())
	}
	for _, e := range gauges {
		r.Gauge(e.name, e.labels...).Set(e.g.Value())
	}
	for _, e := range hists {
		r.Histogram(e.name, e.h.Bounds(), e.labels...).merge(e.h)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.nextSpanID
	for _, sr := range spans {
		sr.ID += base
		if sr.Parent != 0 {
			sr.Parent += base
		}
		if sr.ID >= r.nextSpanID {
			r.nextSpanID = sr.ID + 1
		}
		r.spans = append(r.spans, sr)
	}
	r.events = append(r.events, events...)
}
