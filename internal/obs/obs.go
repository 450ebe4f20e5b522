// Package obs is the analyzer's observability substrate: hierarchical
// spans around every analysis unit (page analyses, hotspot policy checks,
// the fixpoints inside them), counters aggregated per span and per run,
// pluggable trace sinks (JSONL events, Chrome trace-event files that load
// in chrome://tracing and Perfetto), a live progress gauge, and a debug
// HTTP endpoint (pprof + progress snapshot).
//
// The paper's §5.3 makes analysis cost the practical bottleneck; the
// parallelism and budget layers (PR 1/PR 2) attack it, and this package is
// how those attacks are measured instead of guessed: a whole run renders
// as a flamegraph across worker lanes, and every degraded unit's finding
// carries the span id of the unit that burned the budget.
//
// Everything is nil-safe and zero-dependency: a nil *Tracer produces nil
// *Spans, and every method on a nil Tracer or Span returns immediately, so
// instrumented hot paths cost nothing when tracing is off (verified by
// BenchmarkDisabledSpan; the Table 1 benchmarks run with a nil tracer and
// stay within noise of the pre-obs baseline). Engine code follows the same
// batched pattern as the budget probes: hot loops keep local counters and
// flush one Count call per unit, never one call per iteration.
//
// A Tracer is safe for concurrent use; a Span's Count/SetAttr may be called
// only by the goroutine that owns the unit (the same single-owner contract
// as *budget.Budget).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span (entry name, file:line, check
// id, verdict, degradation reason, ...).
type Attr struct {
	Key string
	Val string
}

// Event is the wire form of one completed span, as written to sinks. The
// JSONL sink emits exactly this shape, one object per line; the Chrome
// sink reshapes it into a trace-event.
type Event struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Cat groups spans of one kind ("run", "phase", "page", "hotspot",
	// "fixpoint", ...); trace viewers use it for filtering and coloring.
	Cat  string `json:"cat,omitempty"`
	Lane int    `json:"lane"`
	// StartUS and DurUS are microseconds; StartUS is relative to the
	// tracer's epoch so traces are stable across runs and machines.
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Counters map[string]int64  `json:"counters,omitempty"`
}

// Sink consumes completed span events. Emit is called under the tracer's
// lock, so implementations need no synchronization of their own but must
// not block for long.
type Sink interface {
	Emit(*Event)
	Close() error
}

// Tracer owns the span id space, the run-level counter aggregation, the
// worker-lane pool, the live progress gauge, and the sink fan-out. A nil
// Tracer is the disabled tracer: Start returns a nil span and every other
// method is a no-op.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu       sync.Mutex
	sinks    []Sink
	counters map[string]int64
	lanes    []bool // lane pool; lanes[i] = in use

	prog progress
}

// progress is the live run gauge, updated lock-free from worker goroutines.
type progress struct {
	pagesTotal       atomic.Int64
	pagesDone        atomic.Int64
	pagesDegraded    atomic.Int64
	hotspotsTotal    atomic.Int64
	hotspotsDone     atomic.Int64
	hotspotsDegraded atomic.Int64
	findings         atomic.Int64
}

// Snapshot is one consistent-enough view of a run in flight, served by the
// debug endpoint and the -progress ticker.
type Snapshot struct {
	ElapsedMS        int64            `json:"elapsed_ms"`
	PagesDone        int64            `json:"pages_done"`
	PagesTotal       int64            `json:"pages_total"`
	PagesDegraded    int64            `json:"pages_degraded"`
	HotspotsDone     int64            `json:"hotspots_done"`
	HotspotsTotal    int64            `json:"hotspots_total"`
	HotspotsDegraded int64            `json:"hotspots_degraded"`
	Findings         int64            `json:"findings"`
	Counters         map[string]int64 `json:"counters,omitempty"`
}

// New returns a Tracer writing completed spans to the given sinks. A
// Tracer with no sinks still aggregates counters and progress (for the
// debug endpoint and -progress).
func New(sinks ...Sink) *Tracer {
	return &Tracer{epoch: time.Now(), sinks: sinks, counters: map[string]int64{}}
}

// Close flushes and closes every sink. The first error wins.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.sinks = nil
	return first
}

// Span is one timed unit of work. The zero of *Span (nil) is the disabled
// span: every method returns immediately and Child returns nil, so
// instrumentation plumbed through disabled runs costs one nil check.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	cat    string
	lane   int
	start  time.Time

	attrs    []Attr
	counters map[string]int64
}

// Start opens a root span (no parent). Most callers should open children
// via Span.Child so lanes and parent ids propagate.
func (t *Tracer) Start(cat, name string, attrs ...Attr) *Span {
	return t.start(nil, cat, name, attrs)
}

func (t *Tracer) start(parent *Span, cat, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, id: t.nextID.Add(1), name: name, cat: cat, start: time.Now(), attrs: attrs}
	if parent != nil {
		s.parent = parent.id
		s.lane = parent.lane
	}
	return s
}

// Child opens a sub-span inheriting s's lane. On a nil span it returns
// nil, which keeps whole instrumented call trees free when tracing is off.
func (s *Span) Child(cat, name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(s, cat, name, attrs)
}

// ID returns the span id (0 for the disabled span). Findings and
// degradations record it so reports link back into the trace.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetLane pins the span (and, via inheritance, its children) to a worker
// lane — one horizontal track in the Chrome trace view.
func (s *Span) SetLane(lane int) {
	if s == nil {
		return
	}
	s.lane = lane
}

// SetAttr adds or replaces one annotation.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, val})
}

// Count adds n to the span's counter key. Counters flush into the run
// totals when the span ends. Call it once per unit with a locally
// accumulated total, not once per loop iteration.
func (s *Span) Count(key string, n int64) {
	if s == nil || n == 0 {
		return
	}
	if s.counters == nil {
		s.counters = make(map[string]int64, 8)
	}
	s.counters[key] += n
}

// End closes the span: its event goes to every sink and its counters fold
// into the run totals. End must be called exactly once, by the owning
// goroutine; a nil span's End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	now := time.Now()
	e := &Event{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Cat:     s.cat,
		Lane:    s.lane,
		StartUS: s.start.Sub(t.epoch).Microseconds(),
		DurUS:   now.Sub(s.start).Microseconds(),
	}
	if len(s.attrs) > 0 {
		e.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			e.Attrs[a.Key] = a.Val
		}
	}
	if len(s.counters) > 0 {
		e.Counters = s.counters
	}
	t.mu.Lock()
	for k, v := range s.counters {
		t.counters[k] += v
	}
	for _, sink := range t.sinks {
		sink.Emit(e)
	}
	t.mu.Unlock()
}

// Counters returns a copy of the run-level counter totals (counters of
// every ended span, summed).
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// CounterNames returns the sorted counter keys seen so far.
func (t *Tracer) CounterNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.counters))
	for k := range t.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// AcquireLane hands out the smallest free worker lane. Workers acquire a
// lane after they win a worker-pool slot and release it when done, so a
// run with N workers renders as exactly N lanes. The disabled tracer
// always returns lane 0.
func (t *Tracer) AcquireLane() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, used := range t.lanes {
		if !used {
			t.lanes[i] = true
			return i
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) - 1
}

// ReleaseLane returns a lane to the pool.
func (t *Tracer) ReleaseLane(lane int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if lane >= 0 && lane < len(t.lanes) {
		t.lanes[lane] = false
	}
}

// Progress mutators, called by the core driver as units complete.

// AddPagesTotal grows the page denominator (once per run).
func (t *Tracer) AddPagesTotal(n int) {
	if t != nil {
		t.prog.pagesTotal.Add(int64(n))
	}
}

// PageDone records one finished page analysis.
func (t *Tracer) PageDone(degraded bool) {
	if t == nil {
		return
	}
	t.prog.pagesDone.Add(1)
	if degraded {
		t.prog.pagesDegraded.Add(1)
	}
}

// AddHotspotsTotal grows the hotspot denominator (once per run, after
// phase 1 has discovered the hotspots).
func (t *Tracer) AddHotspotsTotal(n int) {
	if t != nil {
		t.prog.hotspotsTotal.Add(int64(n))
	}
}

// HotspotDone records one finished hotspot check.
func (t *Tracer) HotspotDone(degraded bool) {
	if t == nil {
		return
	}
	t.prog.hotspotsDone.Add(1)
	if degraded {
		t.prog.hotspotsDegraded.Add(1)
	}
}

// AddFindings records reported findings.
func (t *Tracer) AddFindings(n int) {
	if t != nil {
		t.prog.findings.Add(int64(n))
	}
}

// Progress returns the live run gauge plus current counter totals.
func (t *Tracer) Progress() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	return Snapshot{
		ElapsedMS:        time.Since(t.epoch).Milliseconds(),
		PagesDone:        t.prog.pagesDone.Load(),
		PagesTotal:       t.prog.pagesTotal.Load(),
		PagesDegraded:    t.prog.pagesDegraded.Load(),
		HotspotsDone:     t.prog.hotspotsDone.Load(),
		HotspotsTotal:    t.prog.hotspotsTotal.Load(),
		HotspotsDegraded: t.prog.hotspotsDegraded.Load(),
		Findings:         t.prog.findings.Load(),
		Counters:         t.Counters(),
	}
}
