package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAddAndValue(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter is not get-or-create")
	}
}

func TestGaugeLastValueWins(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(1.5)
	g.Set(-2.25)
	if got := g.Value(); got != -2.25 {
		t.Fatalf("Value = %v, want -2.25", got)
	}
}

// TestHistogramBucketEdges pins the ≤-bound bucket semantics: a value equal
// to a bound lands in that bound's bucket, the first value above the largest
// bound lands in the +Inf overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	want := map[float64]int64{1: 2, 2: 2, 4: 1, math.Inf(1): 2}
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d buckets %v, want %d", len(s.Buckets), s.Buckets, len(want))
	}
	for _, b := range s.Buckets {
		if want[b.UpperBound] != b.Count {
			t.Errorf("bucket le=%v: count %d, want %d", b.UpperBound, b.Count, want[b.UpperBound])
		}
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Errorf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
	if wantSum := 0.5 + 1 + 1.0000001 + 2 + 4 + 4.5 + 100; s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramBoundsSortedAndCopied(t *testing.T) {
	bounds := []float64{4, 1, 2}
	h := newHistogram(bounds)
	bounds[0] = 99 // must not alias the histogram's bounds
	h.Observe(3)
	s := h.snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].UpperBound != 4 {
		t.Fatalf("Observe(3) landed in %v, want bucket le=4", s.Buckets)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — run
// under -race this is the registry's concurrency proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				r.Counter("shared").Add(1)
				r.Counter(fmt.Sprintf("own.%d", i%4)).Add(2)
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", []float64{10, 100}).Observe(float64(j % 150))
				if j%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*perG)
	}
	var own int64
	for i := 0; i < 4; i++ {
		own += r.Counter(fmt.Sprintf("own.%d", i)).Value()
	}
	if own != goroutines*perG*2 {
		t.Fatalf("own counters = %d, want %d", own, goroutines*perG*2)
	}
	if got := r.Histogram("h", nil).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestNilObserverNoop proves the whole API is safe — and a no-op — on a nil
// observer, nil registry, and nil metric handles.
func TestNilObserverNoop(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Count("c", 1)
	o.SetGauge("g", 1)
	o.Observe("h", 1)
	sp := o.StartSpan("s", "label")
	sp.End()
	if reg := o.Registry(); reg != nil {
		t.Fatalf("nil observer registry = %v, want nil", reg)
	}

	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(1)
	if c := r.Counter("c"); c.Value() != 0 {
		t.Fatal("nil registry counter has state")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot = %+v, want empty", s)
	}
}

func TestObserverSpansAndSnapshotJSON(t *testing.T) {
	o := New()
	sp := o.StartSpan("phase", "rung")
	time.Sleep(time.Millisecond)
	sp.End()
	o.Count("evals", 3)
	o.SetGauge("workers", 4)

	s := o.Registry().Snapshot()
	hs, ok := s.Histograms["span.phase:rung"]
	if !ok || hs.Count != 1 {
		t.Fatalf("span histogram missing or empty: %+v", s.Histograms)
	}
	if hs.Sum < float64(time.Millisecond) {
		t.Errorf("span recorded %v ns, want ≥ 1ms", hs.Sum)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"le":"+Inf"`) && strings.Contains(string(raw), "Inf") {
		t.Errorf("infinite bound leaked into JSON: %s", raw)
	}
	var round map[string]any
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatalf("snapshot JSON does not parse back: %v", err)
	}
}

func TestServeEndpoints(t *testing.T) {
	o := New()
	o.Count("hits", 7)
	PublishExpvar("obs_test_registry", o.Registry())
	srv, addr, err := Serve("127.0.0.1:0", o.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("server missing slow-client timeouts: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	metrics := get("/metrics")
	var snap Snapshot
	if err := json.Unmarshal([]byte(metrics), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, metrics)
	}
	if snap.Counters["hits"] != 7 {
		t.Errorf("/metrics counters = %v, want hits=7", snap.Counters)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "obs_test_registry") {
		t.Error("/debug/vars does not include the published registry")
	}
	if !strings.Contains(vars, `"spatialrepart"`) || !strings.Contains(vars, `"hits"`) {
		t.Error("/debug/vars missing the registry Serve auto-publishes")
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}

	// Publishing the same name again must not panic.
	PublishExpvar("obs_test_registry", o.Registry())
}

func TestVersionNonEmpty(t *testing.T) {
	v := Version()
	if v == "" {
		t.Fatal("Version() returned empty string")
	}
	if !strings.Contains(v, "go") {
		t.Errorf("Version() = %q, want it to include the Go toolchain version", v)
	}
}
