package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRegistry hammers one registry from parallel goroutines the
// way concurrent daemon requests do — counters must be exact, histograms
// sum-consistent — and is the -race exercise for the whole hot path.
func TestConcurrentRegistry(t *testing.T) {
	r := New()
	c := r.Counter("hits_total", "plain counter")
	vec := r.CounterVec("req_total", "labeled counter", "endpoint")
	g := r.Gauge("depth", "gauge")
	h := r.Histogram("lat_seconds", "histogram", []float64{0.5, 1, 2, 4})
	hv := r.HistogramVec("lat_by_ep_seconds", "labeled histogram", []float64{1, 2}, "endpoint")

	const workers = 8
	const perWorker = 10000
	endpoints := []string{"analyze", "jobs", "health"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := endpoints[w%len(endpoints)]
			child := vec.With(ep)
			hist := hv.With(ep)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				child.Add(2)
				g.Set(float64(w))
				// 0.25 and 1.5 are exact binary fractions, so the sum is
				// exact and the bucket split is deterministic.
				if i%2 == 0 {
					h.Observe(0.25)
				} else {
					h.Observe(1.5)
				}
				hist.Observe(0.25)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	var vecTotal int64
	for _, ep := range endpoints {
		vecTotal += vec.With(ep).Value()
	}
	if vecTotal != 2*workers*perWorker {
		t.Errorf("vec total = %d, want %d", vecTotal, 2*workers*perWorker)
	}
	if n := h.Count(); n != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", n, workers*perWorker)
	}
	wantSum := float64(workers*perWorker/2)*0.25 + float64(workers*perWorker/2)*1.5
	if s := h.Sum(); s != wantSum {
		t.Errorf("histogram sum = %v, want %v", s, wantSum)
	}
	var hvCount int64
	for _, ep := range endpoints {
		hvCount += hv.With(ep).Count()
	}
	if hvCount != workers*perWorker {
		t.Errorf("labeled histogram count = %d, want %d", hvCount, workers*perWorker)
	}
	// The exposition of the hammered registry must still parse strictly.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	names, err := ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"hits_total", "req_total", "depth", "lat_seconds", "lat_by_ep_seconds"} {
		if !contains(names, want) {
			t.Errorf("exposition missing family %s (got %v)", want, names)
		}
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestExpositionFormat(t *testing.T) {
	r := New()
	r.Counter("a_total", "a counter").Add(3)
	r.CounterVec("b_total", "labeled", "tenant", "code").With("t1", "bad-app").Inc()
	r.GaugeFunc("q_len", "queue", func() float64 { return 7 })
	r.GaugeVecFunc("t_inflight", "per tenant", []string{"tenant"}, func() []Labeled {
		return []Labeled{{Values: []string{"zeta"}, V: 1}, {Values: []string{"alpha"}, V: 2}}
	})
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter",
		"a_total 3",
		`b_total{tenant="t1",code="bad-app"} 1`,
		"q_len 7",
		// vec-func series are sorted by label values
		"t_inflight{tenant=\"alpha\"} 2\nt_inflight{tenant=\"zeta\"} 1",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 30.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if _, err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("ValidateExposition: %v", err)
	}
	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Error("exposition is not deterministic across renders")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.CounterVec("e_total", "escapes", "v").With("a\\b\"c\nd").Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := `e_total{v="a\\b\"c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaping wrong:\n%s", buf.String())
	}
	if _, err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("escaped exposition does not parse: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	for _, bad := range []string{
		"name value\n",      // non-numeric value
		"1name 3\n",         // bad metric name
		`x{l="v} 3` + "\n",  // unterminated label value
		"x{l=v} 3\n",        // unquoted label value
		"# TYPE x flavor\n", // unknown type
		"x{0l=\"v\"} 3\n",   // bad label name
	} {
		if _, err := ValidateExposition([]byte(bad)); err == nil {
			t.Errorf("ValidateExposition accepted %q", bad)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
	// 100 observations uniformly in (0,1]: p50 ≈ 0.5 within the first
	// bucket by interpolation.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if q := h.Quantile(0.5); q < 0.4 || q > 0.6 {
		t.Errorf("p50 = %v, want ≈0.5", q)
	}
	// Push 100 more into (1,2]: p99 lands in the second bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if q := h.Quantile(0.99); q < 1 || q > 2 {
		t.Errorf("p99 = %v, want in (1,2]", q)
	}
	// +Inf observations clamp to the largest finite bound.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(100)
	if q := h2.Quantile(0.5); q != 2 {
		t.Errorf("+Inf quantile = %v, want 2 (clamp)", q)
	}
}

func TestRegisterIdempotentAndConflicts(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Error("re-registering the same counter returned a different child")
	}
	defer func() {
		if recover() == nil {
			t.Error("shape conflict did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestRuntimeSampler(t *testing.T) {
	r := New()
	s := StartRuntime(r, time.Millisecond)
	defer s.Stop()
	snap := r.Snapshot()
	if snap["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v, want ≥ 1", snap["go_goroutines"])
	}
	if snap["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v, want > 0", snap["go_heap_alloc_bytes"])
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if _, err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("runtime exposition: %v", err)
	}
}

func TestSnapshotHistogramSeries(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "latency", nil)
	for i := 0; i < 10; i++ {
		h.Observe(0.003)
	}
	snap := r.Snapshot()
	if snap["lat_seconds_count"] != 10 {
		t.Errorf("snapshot count = %v", snap["lat_seconds_count"])
	}
	if math.Abs(snap["lat_seconds_sum"]-0.03) > 1e-9 {
		t.Errorf("snapshot sum = %v", snap["lat_seconds_sum"])
	}
	if p := snap["lat_seconds_p99"]; p <= 0 || p > 0.005 {
		t.Errorf("snapshot p99 = %v, want in first buckets", p)
	}
}

// BenchmarkHistogramObserve is the hot-path budget check: the tentpole
// requires a histogram record ≤ 30 ns.
func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DefBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.012)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	r := New()
	vec := r.CounterVec("x_total", "x", "tenant")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec.With("tenant-a").Inc()
	}
}
