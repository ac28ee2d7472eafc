package obs

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Registry holds named metrics. All methods are safe for concurrent use and
// nil-safe: a nil *Registry hands out nil metrics whose update methods are
// no-ops, so callers never need to guard metric updates themselves.
//
// Metric handles are get-or-create: the first request for a name allocates
// the metric, later requests return the same handle. Callers on hot paths
// should look a handle up once and reuse it; the lookup itself takes a read
// lock, the updates are lock-free.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with the
// given ascending bucket upper bounds on first use. Later calls return the
// existing histogram regardless of bounds (first registration wins). A nil or
// empty bounds slice falls back to DefDurationBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// counterShards stripes each counter across this many cache-line-padded
// slots; Add picks a slot from the calling goroutine's stack address so
// concurrent writers mostly hit distinct cache lines. Must be a power of two.
const counterShards = 8

type counterShard struct {
	n atomic.Int64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a monotonically increasing (well, Add-only) sharded counter.
type Counter struct {
	shards [counterShards]counterShard
}

// shardIndex derives a stripe index from the address of a stack variable.
// Goroutine stacks live in distinct allocations, so goroutines spread across
// stripes without any per-goroutine state or runtime dependence; the shift
// discards the within-frame bits that are identical at every call site.
func shardIndex() int {
	var b byte
	return int((uintptr(unsafe.Pointer(&b)) >> 10) & (counterShards - 1))
}

// Add increments the counter by delta. No-op on a nil counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.shards[shardIndex()].n.Add(delta)
}

// Value returns the current total across all stripes.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		n += c.shards[i].n.Load()
	}
	return n
}

// Gauge is a last-value-wins float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value stored (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefDurationBuckets are the default histogram bounds for span durations, in
// nanoseconds: 1µs to ~65s in powers of four.
var DefDurationBuckets = []float64{
	1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6, 256e6, 1e9, 4e9, 16e9, 64e9,
}

// Histogram counts observations into fixed buckets (upper-bound semantics:
// bucket i counts values v with v ≤ bounds[i], the last implicit bucket
// catches the rest) and tracks count/sum/min/max. Observations are lock-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefDurationBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, or the overflow slot
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
//
//spatialvet:ignore deadexport (b) perfbench reads span-histogram counts through it
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Snapshot is a point-in-time, JSON-ready copy of a registry's metrics.
// Map keys marshal in sorted order, so encoded snapshots are stable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot summarizes one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min,omitempty"`
	Max     float64       `json:"max,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (q ∈ [0, 1]) of the recorded
// distribution from the bucket counts: the containing bucket is located by
// cumulative count and the value interpolated linearly within its bounds.
// The estimate is clamped to the exact observed [Min, Max], which also
// anchors the first bucket's lower edge and the overflow bucket's upper
// edge; with coarse buckets it is an estimate, not an exact order statistic.
// Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	lower := s.Min
	for _, b := range s.Buckets {
		upper := b.UpperBound
		if math.IsInf(upper, 1) || upper > s.Max {
			upper = s.Max
		}
		if lower > upper {
			lower = upper
		}
		next := cum + b.Count
		if rank <= float64(next) {
			frac := (rank - float64(cum)) / float64(b.Count)
			v := lower + frac*(upper-lower)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
		lower = b.UpperBound
	}
	return s.Max
}

// BucketCount is one non-empty histogram bucket: the count of observations
// with value ≤ UpperBound (math.Inf(1) for the overflow bucket).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MarshalJSON encodes the upper bound as a string so the overflow bucket's
// +Inf survives encoding/json (which rejects infinite float64 values).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(struct {
		Le    string `json:"le"`
		Count int64  `json:"count"`
	}{le, b.Count})
}

// snapshot summarizes the histogram; empty buckets are elided.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.Sum()}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: ub, Count: n})
	}
	return s
}

// Snapshot copies the registry's current state. Safe to call concurrently
// with updates; individual metric reads are atomic, the snapshot as a whole
// is not (it may straddle concurrent updates).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}
