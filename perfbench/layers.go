package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spatialrepart/internal/obs"
)

// snap is a registry snapshot; minus turns two of them into one stage's
// share of the counters and histograms.
type snap struct{ obs.Snapshot }

func snapshot(o *obs.Observer) snap { return snap{o.Registry().Snapshot()} }

// minus subtracts an earlier snapshot: counters and histogram counts, sums
// and bucket counts become the stage's own. Histogram min/max stay the later
// snapshot's, which only widens the range quantiles are clamped to.
func (s snap) minus(earlier snap) snap {
	out := obs.Snapshot{Counters: map[string]int64{}, Gauges: s.Gauges, Histograms: map[string]obs.HistogramSnapshot{}}
	for k, v := range s.Counters {
		out.Counters[k] = v - earlier.Counters[k]
	}
	for k, h := range s.Histograms {
		e := earlier.Histograms[k]
		d := obs.HistogramSnapshot{Count: h.Count - e.Count, Sum: h.Sum - e.Sum, Min: h.Min, Max: h.Max}
		for _, b := range h.Buckets {
			for _, eb := range e.Buckets {
				if eb.UpperBound == b.UpperBound {
					b.Count -= eb.Count
				}
			}
			if b.Count > 0 {
				d.Buckets = append(d.Buckets, b)
			}
		}
		out.Histograms[k] = d
	}
	return snap{out}
}

// counter sums every counter named name or name:<label>.
func (s snap) counter(name string) float64 {
	total := int64(0)
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+":") {
			total += v
		}
	}
	return float64(total)
}

func (s snap) hist(name string) obs.HistogramSnapshot { return s.Histograms[name] }

// nsMean is a nanosecond histogram's mean in milliseconds.
func nsMean(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count) / 1e6
}

// nsQ is a nanosecond histogram's q-quantile in milliseconds.
func nsQ(h obs.HistogramSnapshot, q float64) float64 { return h.Quantile(q) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced pass. core.* are
// the batch stage's; serve.* and ingest.* are those stages' own shares of
// their stacks' registries.
func layerMetrics(so stageObs, res *passResult, serve, ingest snap, ingestSt *stack) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	for k, v := range coreLayers(snapshot(so.batch), res) {
		m[k] = v
	}

	streamLayer := func(p string, s snap, reads int) {
		cur := s.hist("span.stream.current")
		refresh, recompute := s.hist("span.stream.refresh"), s.hist("span.stream.recompute")
		set(p+"stream.current_ms_p50", nsQ(cur, 0.5), "ms")
		set(p+"stream.current_ms_p99", nsQ(cur, 0.99), "ms")
		set(p+"stream.refresh_ms", nsMean(refresh), "ms")
		set(p+"stream.recompute_ms", nsMean(recompute), "ms")
		set(p+"stream.current_wait_ms", ratio(cur.Sum-refresh.Sum-recompute.Sum, float64(cur.Count))/1e6, "ms")
		refreshes, recomputes := s.counter("stream.refreshes"), s.counter("stream.recomputes")
		set(p+"stream.refreshes", refreshes, "count")
		set(p+"stream.recomputes", recomputes, "count")
		set(p+"stream.refresh_hit_ratio", ratio(refreshes, refreshes+recomputes), "ratio")
		set(p+"stream.views_per_read", ratio(refreshes+recomputes, float64(reads)), "ratio")
	}
	frontLayers := func(p string, s snap) {
		set(p+"server.cell_ms_p50", nsQ(s.hist("server.http.latency_ns:/cell:200"), 0.5), "ms")
		set(p+"server.cell_ms_p99", nsQ(s.hist("server.http.latency_ns:/cell:200"), 0.99), "ms")
		set(p+"server.queued", s.counter("server.queued"), "count")
		set(p+"server.shed", s.counter("server.shed"), "count")
		set(p+"cluster.cell_ms_p50", nsQ(s.hist("cluster.http.latency_ns:/cell:200"), 0.5), "ms")
		set(p+"cluster.cell_ms_p99", nsQ(s.hist("cluster.http.latency_ns:/cell:200"), 0.99), "ms")
		fetch := s.hist("span.cluster.fetch")
		set(p+"cluster.fetch_ms_p50", nsQ(fetch, 0.5), "ms")
		set(p+"cluster.fetch_ms_p99", nsQ(fetch, 0.99), "ms")
		set(p+"cluster.fetches_per_request", ratio(float64(fetch.Count), float64(s.hist("span.cluster.request").Count)), "ratio")
		set(p+"cluster.retries", s.counter("cluster.backend.retries"), "count")
		set(p+"cluster.hedges", s.counter("cluster.backend.hedges"), "count")
		set(p+"cluster.missing_shards", s.Gauges["cluster.missing_shards"], "count")
	}

	streamLayer("serve.", serve, len(res.cell)+len(res.view))
	frontLayers("serve.", serve)
	set("serve.server.view_ms_p50", nsQ(serve.hist("server.http.latency_ns:/view:200"), 0.5), "ms")
	set("serve.cluster.view_ms_p50", nsQ(serve.hist("cluster.http.latency_ns:/view:200"), 0.5), "ms")
	set("serve.cluster.view_ms_p90", nsQ(serve.hist("cluster.http.latency_ns:/view:200"), 0.9), "ms")
	set("serve.cluster.view_self_ms", viewSelfMS(so.serve), "ms")

	streamLayer("ingest.", ingest, len(res.liveCell))
	frontLayers("ingest.", ingest)
	set("ingest.stream.add_us_p50", us(res.acks.quantile(0.5)), "us")
	set("ingest.stream.add_us_p99", us(res.acks.quantile(0.99)), "us")
	set("ingest.core.eval_ms", nsMean(ingest.hist("span.rung.eval")), "ms")
	appends := ingest.counter("wal.appended")
	fsync := ingest.hist("wal.fsync_ns")
	set("wal.appends", appends, "count")
	set("wal.fsyncs", float64(fsync.Count), "count")
	set("wal.records_per_fsync", ratio(appends, float64(fsync.Count)), "ratio")
	set("wal.fsync_us_p50", fsync.Quantile(0.5)/1e3, "us")
	set("wal.fsync_us_p99", fsync.Quantile(0.99)/1e3, "us")
	set("wal.bytes_per_record", ratio(walBytes(ingestSt), appends), "bytes")
	return m
}

// coreLayers derives the core.* metrics from the batch stage's registry b.
// Timings are per call; the counts are per grid, averaged over the batch
// grids, so they repeat exactly whatever number of calls a pass makes.
func coreLayers(b snap, res *passResult) map[string]metric {
	m := map[string]metric{}
	perCall := func(span string) float64 { return ratio(b.hist("span."+span).Sum, float64(len(res.repart))) / 1e6 }
	m["core.varfield_ms"] = metric{perCall("varfield.build"), "ms"}
	m["core.extract_ms"] = metric{perCall("rung.extract"), "ms"}
	m["core.allocate_ms"] = metric{perCall("rung.allocate"), "ms"}
	m["core.loss_ms"] = metric{perCall("rung.loss"), "ms"}
	m["core.eval_ms"] = metric{perCall("rung.eval"), "ms"}
	var c gridCounts
	for _, g := range res.grids {
		c.evaluations += g.evaluations
		c.rungEvals += g.rungEvals
		c.groups += g.groups
		c.singleton += g.singleton
	}
	n := float64(len(res.grids))
	m["core.evaluations"] = metric{ratio(c.evaluations, n), "count"}
	m["core.rung_evals"] = metric{ratio(c.rungEvals, n), "count"}
	m["core.groups"] = metric{ratio(c.groups, n), "count"}
	m["core.singleton_cell_share"] = metric{ratio(c.singleton, n), "ratio"}
	return m
}

// viewSelfMS is the median, over the /view requests the flight recorder
// kept, of cluster.request minus its longest child cluster.fetch: the
// coordinator's own stitching and encoding time.
func viewSelfMS(o *obs.Observer) float64 {
	events := o.Flight().Snapshot()
	longest := map[obs.SpanID]int64{}
	for _, e := range events {
		if e.Name == "cluster.fetch" && e.DurNS > longest[e.Parent] {
			longest[e.Parent] = e.DurNS
		}
	}
	var self []float64
	for _, e := range events {
		if e.Name == "cluster.request" && attr(e, "route") == "/view" {
			if l, ok := longest[e.Span]; ok {
				self = append(self, float64(e.DurNS-l)/1e6)
			}
		}
	}
	return median(self)
}

func attr(e obs.SpanEvent, key string) string {
	for i := 0; i+1 < len(e.Attrs); i += 2 {
		if e.Attrs[i] == key {
			return e.Attrs[i+1]
		}
	}
	return ""
}

// checkChain requires at least one /cell request whose trace connects the
// benchmark's client span through cluster.request and server.request down
// to stream.current.
func checkChain(o *obs.Observer) error {
	events := o.Flight().Snapshot()
	byID := map[obs.SpanID]obs.SpanEvent{}
	for _, e := range events {
		byID[e.Span] = e
	}
	for _, e := range events {
		if e.Name != "stream.current" {
			continue
		}
		var names []string
		for cur, ok := e, true; ok; cur, ok = byID[cur.Parent] {
			if cur.Trace != e.Trace {
				break
			}
			names = append(names, cur.Name)
			if cur.Parent.IsZero() {
				break
			}
		}
		chain := strings.Join(names, "<")
		if strings.HasPrefix(chain, "stream.current<server.request<") && strings.HasSuffix(chain, "<cluster.request<bench.cell") {
			return nil
		}
	}
	return fmt.Errorf("trace: no connected bench.cell → cluster.request → server.request → stream.current chain among %d spans", len(events))
}

// walBytes is the on-disk size of the stack's WAL segments, less their
// headers.
func walBytes(st *stack) float64 {
	total := 0.0
	for k := range st.wals {
		files, _ := filepath.Glob(filepath.Join(st.walDirs[k], "*.seg"))
		for _, f := range files {
			if fi, err := os.Stat(f); err == nil {
				total += float64(fi.Size() - walHeaderBytes)
			}
		}
	}
	return total
}

// walHeaderBytes is the WAL segment header size (magic, version, first
// sequence).
const walHeaderBytes = 18
