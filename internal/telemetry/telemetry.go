// Package telemetry is the unified metrics registry of the runtime: the one
// place the engines (internal/core, including their publication counters),
// the versioned heap (internal/vheap) and the harness publish their
// measurements into, and the one place run reports, CI perf gates and
// Chrome-trace timelines are built from.
//
// The registry holds three metric kinds:
//
//   - counters: monotone int64 sums ("vheap.words_scanned", "turn.retries");
//   - gauges:   last-write-wins float64 values ("wall_ns");
//   - histograms: int64 samples bucketed into a fixed power-of-two layout,
//     so the bucket boundaries never depend on the data and the serialized
//     output of a deterministic run is itself deterministic.
//
// Counters and histograms come in two flavours that report identically.
// Per-event metrics are registered: the layer that produces the events owns
// a Counter or Histogram, updates it with atomic adds — no lock, no map
// lookup — and attaches it to a Recorder under its metric name once, when
// the layer is built. Snapshot, Counter and CounterNames read the attached
// objects, so an attached layer's metrics are complete the moment its last
// event lands, with no publish step. Cold sites (thread exit, run end) use
// the name-keyed Count and Observe, which take the recorder's mutex.
//
// A *Recorder with spans enabled additionally keeps per-thread span lists —
// turn-grant waits, speculation runs, commits, reverts — stamped in DLC
// (deterministic logical clock) time rather than wall time. DLC stamps make
// the exported timeline a pure function of the execution's deterministic
// schedule: two runs of a deterministic engine export byte-identical traces.
//
// Like internal/invariant and internal/trace, the disabled state is the nil
// *Recorder: every method is nil-safe and publishers guard only with a nil
// pointer compare (or a flag set when they attached), so a run without
// telemetry pays nothing beyond that compare at each publication point.
package telemetry

import (
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// SpanKind names a span category on a thread's DLC timeline.
type SpanKind uint8

const (
	// SpanTurnWait covers a thread's wait for the deterministic turn, from
	// the DLC at which it first requested the turn to the DLC at which a
	// commit-capable turn was granted (backoff re-queues advance the clock
	// in between).
	SpanTurnWait SpanKind = iota + 1
	// SpanSpec covers a speculation run, BEGIN_i to termination.
	SpanSpec
	// SpanCommit marks a heap commit (instant, at the committing turn).
	SpanCommit
	// SpanRevert marks a speculation revert (instant).
	SpanRevert
)

// String returns the exporter's name for the kind.
func (k SpanKind) String() string {
	switch k {
	case SpanTurnWait:
		return "turn-wait"
	case SpanSpec:
		return "speculation"
	case SpanCommit:
		return "commit"
	case SpanRevert:
		return "revert"
	}
	return "unknown"
}

// Span is one event on a thread's timeline. Begin and End are DLC stamps
// (End == Begin for instant events); Arg carries a kind-specific value —
// retry count for turn waits, critical sections for speculation runs, the
// commit sequence for commits, discarded words for reverts.
type Span struct {
	Kind       SpanKind
	Begin, End int64
	Arg        int64
}

// histBuckets is the number of fixed histogram buckets: bucket i counts
// samples whose value has bit length i, i.e. bucket 0 holds v <= 0, bucket i
// holds 2^(i-1) <= v < 2^i. The layout is total and data-independent, which
// is what keeps serialized histograms run-deterministic.
const histBuckets = 64

// bucketOf returns the fixed bucket index for v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow returns the smallest value landing in bucket i of the fixed
// layout (0 for bucket 0).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Counter is a registered monotone counter: an int64 sum owned by the layer
// whose events it counts. Add is lock-free and safe for concurrent use; the
// zero value is ready. A counter reports under its attached name iff it was
// ever added to — a zero delta included — exactly like Recorder.Count.
type Counter struct {
	v atomic.Int64
	// touched records an Add whose delta could leave v at zero, which v
	// alone cannot tell from "never added to". Positive deltas skip it, so
	// a constant Add(1) is the atomic add alone.
	touched atomic.Bool
}

// Add adds d to the counter.
func (c *Counter) Add(d int64) {
	c.v.Add(d)
	if d <= 0 && !c.touched.Load() {
		c.touched.Store(true)
	}
}

// Load returns the counter's current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// present reports whether the counter was ever added to.
func (c *Counter) present() bool { return c.v.Load() != 0 || c.touched.Load() }

// Histogram is a registered histogram in the fixed power-of-two bucket
// layout, owned by the layer that observes it. Observe is lock-free and safe
// for concurrent use; the zero value is ready. A histogram reports iff it
// holds at least one sample.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe adds one sample.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// addTo folds the histogram into a snapshot entry.
func (h *Histogram) addTo(hs *HistSnapshot) {
	hs.N += h.n.Load()
	hs.Sum += h.sum.Load()
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			if hs.Buckets == nil {
				hs.Buckets = map[string]int64{}
			}
			hs.Buckets[strconv.FormatInt(BucketLow(i), 10)] += c
		}
	}
}

// counterSource is one source of a counter name: an attached Counter, or,
// when c is nil, the recorder's own sum for the name, which Count adds to
// under the recorder's mutex.
type counterSource struct {
	name string
	c    *Counter
	own  int64
}

func (s *counterSource) present() bool { return s.c == nil || s.c.present() }

func (s *counterSource) load() int64 {
	if s.c == nil {
		return s.own
	}
	return s.c.Load()
}

// histSource is one source of a histogram name. own marks the recorder's
// own histogram for the name, the one Observe adds to.
type histSource struct {
	name string
	h    *Histogram
	own  bool
}

// Recorder is the metrics registry. The nil *Recorder is the disabled
// recorder: every method is a no-op on it.
//
// Counter, gauge and histogram updates are safe for concurrent use from any
// thread. Span recording is per-thread: Span(tid, ...) may only be called by
// simulated thread tid, which lets each thread append to its own slice
// without locking — the same discipline internal/trace uses.
//
// A metric name may have any number of sources — every object attached
// under the name, plus the recorder's own entry when Count or Observe used
// the name — and reports their sum.
type Recorder struct {
	mu       sync.Mutex
	counters []counterSource // every counter source, attached and own
	hists    []histSource    // every histogram source, attached and own
	gauges   map[string]float64

	spans [][]Span // per-thread; nil unless built WithSpans
}

// New returns an enabled recorder for counters, gauges and histograms.
func New() *Recorder {
	return &Recorder{
		// Room for a run's counters (a report row carries 40–60), so
		// registration does not regrow the list.
		counters: make([]counterSource, 0, 64),
		gauges:   make(map[string]float64),
	}
}

// NewWithSpans returns a recorder that additionally keeps per-thread span
// timelines for threads 0..threads-1 (the Chrome-trace exporter's input).
func NewWithSpans(threads int) *Recorder {
	r := New()
	r.spans = make([][]Span, threads)
	return r
}

// Enabled reports whether the recorder records anything (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SpansEnabled reports whether span timelines are kept.
func (r *Recorder) SpansEnabled() bool { return r != nil && r.spans != nil }

// AttachCounter makes c a source of the named counter: every snapshot and
// read from now on includes c's current value. The caller keeps ownership
// and updates c directly. Attach once, when the owning layer is built.
func (r *Recorder) AttachCounter(name string, c *Counter) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters = append(r.counters, counterSource{name: name, c: c})
	r.mu.Unlock()
}

// AttachHistogram makes h a source of the named histogram, as
// AttachCounter does for counters.
func (r *Recorder) AttachHistogram(name string, h *Histogram) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hists = append(r.hists, histSource{name: name, h: h})
	r.mu.Unlock()
}

// Count adds delta to the named counter. It takes the recorder's mutex and
// searches the name's sources; per-event sites attach a Counter instead.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.counters {
		if s := &r.counters[i]; s.c == nil && s.name == name {
			s.own += delta
			return
		}
	}
	r.counters = append(r.counters, counterSource{name: name, own: delta})
}

// SetGauge sets the named gauge.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe adds one sample to the named histogram. Like Count it takes the
// recorder's mutex; per-event sites attach a Histogram instead.
func (r *Recorder) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	var h *Histogram
	for _, a := range r.hists {
		if a.own && a.name == name {
			h = a.h
			break
		}
	}
	if h == nil {
		h = &Histogram{}
		r.hists = append(r.hists, histSource{name: name, h: h, own: true})
	}
	r.mu.Unlock()
	h.Observe(v)
}

// Span appends a span to thread tid's timeline. It must be called by
// simulated thread tid itself. A no-op unless the recorder was built
// WithSpans (and for out-of-range tids, so engines need not re-check).
func (r *Recorder) Span(tid int, kind SpanKind, begin, end, arg int64) {
	if r == nil || r.spans == nil || tid < 0 || tid >= len(r.spans) {
		return
	}
	r.spans[tid] = append(r.spans[tid], Span{Kind: kind, Begin: begin, End: end, Arg: arg})
}

// Counter returns the named counter's current value: the sum over its
// sources (0 when absent or nil).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var v int64
	for i := range r.counters {
		if s := &r.counters[i]; s.name == name {
			v += s.load()
		}
	}
	return v
}

// Gauge returns the named gauge's current value (0 when absent or nil).
func (r *Recorder) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Threads returns the number of span timelines (0 unless WithSpans).
func (r *Recorder) Threads() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// ThreadSpans returns thread tid's recorded spans. Only meaningful after the
// run completes; the returned slice is the recorder's own storage.
func (r *Recorder) ThreadSpans(tid int) []Span {
	if r == nil || r.spans == nil || tid < 0 || tid >= len(r.spans) {
		return nil
	}
	return r.spans[tid]
}

// HistSnapshot is one histogram's serializable state. Buckets maps the
// bucket's lower bound (decimal string, for JSON key stability) to its
// count; only non-empty buckets appear.
type HistSnapshot struct {
	N       int64            `json:"n"`
	Sum     int64            `json:"sum"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of the registry, ready to serialize.
// encoding/json emits map keys sorted, so the encoded form of a snapshot of
// a deterministic run is itself deterministic.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry, summing each name's sources. Nil recorders
// snapshot to empty maps. Each source is read atomically, but a snapshot
// taken while events are still landing is not a consistent cut across
// sources; reports snapshot after the run.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.counters {
		if src := &r.counters[i]; src.present() {
			s.Counters[src.name] += src.load()
		}
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for _, a := range r.hists {
		if a.h.n.Load() != 0 {
			hs := s.Histograms[a.name]
			a.h.addTo(&hs)
			s.Histograms[a.name] = hs
		}
	}
	return s
}

// CounterNames returns the names of the counters that were ever added to,
// sorted.
func (r *Recorder) CounterNames() []string {
	if r == nil {
		return nil
	}
	counters := r.Snapshot().Counters
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
