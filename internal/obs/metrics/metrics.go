// Package metrics is a zero-dependency, low-allocation metrics registry
// for the analyzer's serving path: atomic counters, gauges, and fixed-bucket
// latency histograms, optionally labeled, with Prometheus text exposition.
//
// The design goals mirror the rest of the obs layer:
//
//   - hot paths are a handful of atomic operations — a Counter.Add is one
//     atomic add, a Histogram.Observe is one bucket add plus one CAS loop on
//     the sum (see BenchmarkHistogramObserve; the budget is ≤30 ns) — and
//     never allocate;
//   - labeled families intern their children: Vec.With returns the same
//     child for the same label values, so callers on a hot path look a
//     child up once (per tenant, endpoint, or verdict class) and keep the
//     pointer;
//   - readers (the /metrics exposition, quantile snapshots) never block
//     writers for more than a map read lock.
//
// Func-backed series (CounterFunc, GaugeFunc, and their Vec forms) export
// values the process already maintains elsewhere — the daemon's queue
// atomics, the policy checker's cumulative cache counters, the arena intern
// pool — without double counting: the callback is invoked at scrape time.
//
// Exposition is the Prometheus text format (text/plain; version=0.0.4),
// deterministically ordered (families by name, series by label values), so
// a scrape can be golden-tested. ValidateExposition is the strict parser the
// golden test and the metrics-smoke CI check share.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the metric family type.
type Kind uint8

// Family kinds, matching the Prometheus TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Labeled is one dynamically gathered series of a func-backed vec family:
// its label values (matching the family's label names) and current value.
type Labeled struct {
	Values []string
	V      float64
}

// family is one named metric family: a kind, a label schema, and the
// interned children keyed by their joined label values.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram bucket upper bounds (no +Inf)

	// Exactly one of the following is populated.
	fn    func() float64   // func-backed single series
	vecFn func() []Labeled // func-backed labeled series

	mu       sync.RWMutex
	children map[string]any // *Counter | *Gauge | *Histogram
}

// Registry owns a set of metric families. The zero value is not usable;
// create with New. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register creates (or re-fetches) a family. Re-registering the same name
// with the same shape returns the existing family (idempotent, so package
// init order does not matter); a shape conflict is a programming error and
// panics.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	checkName(name)
	for _, l := range labels {
		checkLabel(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		bounds: bounds, children: map[string]any{}}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkName enforces the Prometheus metric name charset.
func checkName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic("metrics: invalid metric name: " + name)
		}
	}
}

// checkLabel enforces the Prometheus label name charset.
func checkLabel(name string) {
	if name == "" {
		panic("metrics: empty label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic("metrics: invalid label name: " + name)
		}
	}
}

// ---- counters ----------------------------------------------------------

// Counter is a monotonically increasing value. The zero value is ready to
// use, but counters should be minted by a Registry to be exposed.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be ≥ 0; negative deltas are
// silently dropped to keep the series monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.child("", func() any { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the pattern for exporting an atomic the process already maintains.
// fn must be monotonic for the series to be a valid Prometheus counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindCounter, nil, nil)
	f.fn = fn
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// With interns and returns the child for the given label values. Hot paths
// should call With once per distinct label set and keep the pointer.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(labelKey(v.f, values), func() any { return &Counter{} }).(*Counter)
}

// CounterVecFunc registers a labeled counter family gathered from fn at
// scrape time (e.g. per-tenant cumulative counts kept elsewhere).
func (r *Registry) CounterVecFunc(name, help string, labels []string, fn func() []Labeled) {
	f := r.register(name, help, KindCounter, labels, nil)
	f.vecFn = fn
}

// ---- gauges ------------------------------------------------------------

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (CAS loop; gauges are not hot-path metrics).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.child("", func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.fn = fn
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labels, nil)}
}

// With interns and returns the child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(labelKey(v.f, values), func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVecFunc registers a labeled gauge family gathered from fn at scrape
// time.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, fn func() []Labeled) {
	f := r.register(name, help, KindGauge, labels, nil)
	f.vecFn = fn
}

// ---- histograms --------------------------------------------------------

// Histogram is a fixed-bucket histogram: one atomic counter per bucket plus
// an atomic float sum. Observe is the hot path — a linear bucket search
// (bucket counts are small and fixed), one atomic add, and one CAS loop.
type Histogram struct {
	bounds []float64 // upper bounds, ascending, +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records d in seconds (the unit latency histograms use).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing the target rank — the same estimate a
// Prometheus histogram_quantile would produce from one scrape. Observations
// in the +Inf bucket clamp to the largest finite bound. Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(h.bounds) {
				// +Inf bucket: the best point estimate is the last finite
				// bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(prev)) / float64(c)
			return lower + (h.bounds[i]-lower)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets is the default latency bucket layout in seconds: 1 ms to 10 s,
// sized for the daemon's serving path (warm cache hits land in the low
// milliseconds, cold Table 1 subjects in the hundreds).
func DefBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Histogram registers (or fetches) an unlabeled histogram. buckets must be
// ascending; nil means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	buckets = checkBuckets(buckets)
	f := r.register(name, help, KindHistogram, nil, buckets)
	return f.child("", func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labels, checkBuckets(buckets))}
}

// With interns and returns the child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(labelKey(v.f, values), func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// Each calls fn for every interned child with its label values, in sorted
// label order — the hook /debug/server uses to render per-endpoint
// p50/p95/p99 without re-parsing the exposition.
func (v *HistogramVec) Each(fn func(labelValues []string, h *Histogram)) {
	v.f.mu.RLock()
	keys := make([]string, 0, len(v.f.children))
	for k := range v.f.children {
		keys = append(keys, k)
	}
	v.f.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.f.mu.RLock()
		c := v.f.children[k]
		v.f.mu.RUnlock()
		fn(splitKey(k), c.(*Histogram))
	}
}

func checkBuckets(b []float64) []float64 {
	if len(b) == 0 {
		return DefBuckets()
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("metrics: histogram buckets must be strictly ascending")
		}
	}
	return b
}

// ---- interning ---------------------------------------------------------

// labelKey joins label values into the intern key. 0xff cannot appear in
// UTF-8 text, so the join is unambiguous.
func labelKey(f *family, values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, "\xff")
}

func splitKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\xff")
}

// child interns one series under key, creating it with mk on first use.
func (f *family) child(key string, mk func() any) any {
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = mk()
	f.children[key] = c
	return c
}

// ---- exposition --------------------------------------------------------

// WritePrometheus renders every family in the Prometheus text format,
// deterministically ordered: families by name, series by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		fams[name] = f
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		writeFamily(bw, fams[name])
	}
	return bw.Flush()
}

func writeFamily(w *bufio.Writer, f *family) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	switch {
	case f.fn != nil:
		writeSample(w, f.name, f.labels, nil, f.fn())
	case f.vecFn != nil:
		series := f.vecFn()
		sort.Slice(series, func(i, j int) bool {
			return less(series[i].Values, series[j].Values)
		})
		for _, s := range series {
			writeSample(w, f.name, f.labels, s.Values, s.V)
		}
	default:
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		children := make(map[string]any, len(f.children))
		for k, c := range f.children {
			children[k] = c
		}
		f.mu.RUnlock()
		sort.Strings(keys)
		for _, k := range keys {
			values := splitKey(k)
			switch c := children[k].(type) {
			case *Counter:
				writeSample(w, f.name, f.labels, values, float64(c.Value()))
			case *Gauge:
				writeSample(w, f.name, f.labels, values, c.Value())
			case *Histogram:
				writeHistogram(w, f.name, f.labels, values, c)
			}
		}
	}
}

func less(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// writeHistogram renders the cumulative _bucket series plus _sum and _count.
func writeHistogram(w *bufio.Writer, name string, labels, values []string, h *Histogram) {
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		writeSampleLE(w, name+"_bucket", labels, values, le, float64(cum))
	}
	writeSample(w, name+"_sum", labels, values, h.Sum())
	writeSample(w, name+"_count", labels, values, float64(cum))
}

func writeSample(w *bufio.Writer, name string, labels, values []string, v float64) {
	writeSampleLE(w, name, labels, values, "", v)
}

func writeSampleLE(w *bufio.Writer, name string, labels, values []string, le string, v float64) {
	w.WriteString(name)
	if len(values) > 0 || le != "" {
		w.WriteByte('{')
		first := true
		for i, val := range values {
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.WriteString(labels[i])
			w.WriteString(`="`)
			w.WriteString(escapeLabel(val))
			w.WriteByte('"')
		}
		if le != "" {
			if !first {
				w.WriteByte(',')
			}
			w.WriteString(`le="`)
			w.WriteString(le)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// Handler serves the exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Snapshot flattens the registry to "name{label=value,...}" → value.
// Histograms contribute name_count, name_sum, and estimated name_p50 /
// name_p95 / name_p99 series. Used by /debug introspection and by the
// served-benchmark snapshot recorded into BENCH_server.json.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		switch {
		case f.fn != nil:
			out[f.name] = f.fn()
		case f.vecFn != nil:
			for _, s := range f.vecFn() {
				out[seriesName(f, s.Values)] = s.V
			}
		default:
			f.mu.RLock()
			children := make(map[string]any, len(f.children))
			for k, c := range f.children {
				children[k] = c
			}
			f.mu.RUnlock()
			for k, c := range children {
				values := splitKey(k)
				base := seriesName(f, values)
				switch c := c.(type) {
				case *Counter:
					out[base] = float64(c.Value())
				case *Gauge:
					out[base] = c.Value()
				case *Histogram:
					name := seriesSuffixed(f, values)
					out[name("count")] = float64(c.Count())
					out[name("sum")] = c.Sum()
					out[name("p50")] = c.Quantile(0.50)
					out[name("p95")] = c.Quantile(0.95)
					out[name("p99")] = c.Quantile(0.99)
				}
			}
		}
	}
	return out
}

func seriesName(f *family, values []string) string {
	if len(values) == 0 {
		return f.name
	}
	var b strings.Builder
	b.WriteString(f.name)
	b.WriteByte('{')
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.labels[i])
		b.WriteByte('=')
		b.WriteString(v)
	}
	b.WriteByte('}')
	return b.String()
}

func seriesSuffixed(f *family, values []string) func(suffix string) string {
	return func(suffix string) string {
		g := family{name: f.name + "_" + suffix, labels: f.labels}
		return seriesName(&g, values)
	}
}

// ValidateExposition strictly parses a Prometheus text exposition and
// returns the distinct metric names seen (histogram series reduce to their
// family name). It enforces: HELP/TYPE comment shape, name charsets, label
// syntax, parseable sample values, and that every sample belongs to the
// family most recently declared or is a bare untyped series. The golden
// test and `make metrics-smoke` both gate on it.
func ValidateExposition(data []byte) (names []string, err error) {
	seen := map[string]bool{}
	for lineNo, line := range strings.Split(string(data), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if err := validName(fields[2]); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
			}
			continue
		}
		name, rest, err := parseSeriesName(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		val := strings.TrimSpace(rest)
		// Allow an optional timestamp after the value.
		if i := strings.IndexByte(val, ' '); i >= 0 {
			ts := val[i+1:]
			val = val[:i]
			if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad timestamp %q", lineNo, ts)
			}
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad sample value %q", lineNo, val)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(base, suffix); ok {
				base = b
				break
			}
		}
		if !seen[base] && !seen[name] {
			seen[base] = true
			names = append(names, base)
		}
	}
	sort.Strings(names)
	return names, nil
}

func validName(name string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	checkName(name)
	return nil
}

// parseSeriesName splits "name{label="v",...} value" into the metric name
// and the remainder after the optional label block, validating label syntax.
func parseSeriesName(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if err := validName(name); err != nil {
		return "", "", err
	}
	if line[i] == ' ' {
		return name, line[i+1:], nil
	}
	// Label block: scan past quoted values, honoring escapes.
	j := i + 1
	for j < len(line) && line[j] != '}' {
		// label name
		k := j
		for k < len(line) && line[k] != '=' {
			k++
		}
		if k >= len(line) {
			return "", "", fmt.Errorf("unterminated label block in %q", line)
		}
		if err := validName(line[j:k]); err != nil {
			return "", "", fmt.Errorf("bad label name in %q: %v", line, err)
		}
		if k+1 >= len(line) || line[k+1] != '"' {
			return "", "", fmt.Errorf("unquoted label value in %q", line)
		}
		k += 2
		for k < len(line) && line[k] != '"' {
			if line[k] == '\\' {
				k++
			}
			k++
		}
		if k >= len(line) {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		j = k + 1
		if j < len(line) && line[j] == ',' {
			j++
		}
	}
	if j >= len(line) || line[j] != '}' {
		return "", "", fmt.Errorf("unterminated label block in %q", line)
	}
	if j+1 >= len(line) || line[j+1] != ' ' {
		return "", "", fmt.Errorf("missing sample value in %q", line)
	}
	return name, line[j+2:], nil
}
