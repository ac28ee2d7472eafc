// Command perfbench is the end-to-end benchmark of the spatialrepart
// pipeline. One run drives the public entry points of every layer (core's
// Repartition, the stream repartitioner, its write-ahead log, the shard HTTP
// server and the cluster coordinator) in three stages, checks every output,
// and prints one JSON result line last. From the repository root:
//
//	bash perfbench/run.sh --workload multi --seed 7 --seconds 40 --trace 0
//
// run.sh builds this package with a build cache kept under .bench_build/.
//
// # Stages
//
// Every run executes the same three stages, taking turns in eight short
// rounds so that a burst of contention on the machine lands on all of them
// alike. Each stage is closed-loop, with at most two load goroutines.
//
//   - batch: one caller calls Repartition (default workers, θ=0.1,
//     geometric schedule) on three 512×512 grids generated from the seed,
//     in turn. The rung search (extract, allocate, loss) is nearly all of
//     the time; the WAL, server and cluster are idle. Metric: repart_s
//     (median call).
//   - serve: a 2-shard cluster over a 128×128 grid of taxi records (4
//     attributes) loaded in set-up; each shard is a stream + server on
//     loopback with a coordinator in front. No ingest. One client sends
//     /cell at seeded random cells, the other sends /view. This is
//     admission, routing, scatter-gather, stitching and JSON. Metrics:
//     cell_p50_ms, cell_p99_ms, view_p50_ms, view_p90_ms.
//   - ingest: a second 2-shard cluster restored from the serve shards'
//     checkpoints, each shard on its own WAL under sync=always (cmd/repart's
//     default). One producer calls the owning shard's stream.Add, routed by
//     Plan.Route, while one reader sends /cell through the coordinator.
//     Metrics: ack_p50_us (stream.Add), fresh_p50_ms (ack → the first served
//     view that includes the record, read from Stats().Accepted −
//     StaleRecords after each read), live_cell_p50_ms, live_cell_p90_ms.
//     ingest_rps, ack_p99_us and fresh_p99_ms follow the disk's fsync tail
//     and swing by a fifth or more between runs, so they are printed and
//     reported with the per-layer metrics rather than gated.
//
// setup_s is the median of five set-ups, each generating the inputs,
// starting both stacks and producing each stack's first view.
//
// Baseline facts the stages expose (2 vCPU Xeon, ext4, --seconds 40, traced
// pass; multi seed 6002, uni seed 6001):
//
//   - serve: under the shipped MinRecordsBetweenChecks=0 every read runs a
//     stream refresh although nothing changed (serve.stream.views_per_read
//     ≈ 1.00; /cell p50 ≈ 1.2 ms). The coordinator's own stitching and
//     re-encoding is most of /view (serve.cluster.view_self_ms ≈ 71 of
//     81 ms).
//   - ingest: every read during ingest triggers a full shard recompute
//     (ingest.stream.refresh_hit_ratio ≈ 0.04; live /cell p50 ≈ 44 ms), and
//     the ack path pays one fsync per record under the aggregate lock
//     (wal.records_per_fsync = 1; ack p50 ≈ 73 µs, ≈ 7.0k records/s).
//   - batch: the rung search is the call. multi: 41.3 evaluations per grid,
//     allocate 829 + loss 445 ms against extract 738 ms of worker time per
//     1.15 s call; uni: 11.3 evaluations, extract 189 ms against allocate
//     73 + loss 53 ms per 0.22 s call.
//
// # Workloads
//
// The workloads differ in the batch grid's attribute count, which shifts
// core cost between extract (per rung, independent of attributes) and
// allocate/loss (per attribute); the serve and ingest stages are the same.
//
//   - multi: taxi-multi, 4 attributes; allocate and loss lead.
//   - uni: earnings-uni, 1 attribute; extract leads.
//
// # Correctness
//
// Every operation is checked; a failed, refused or wrong one counts in
// "failed", and error_rate = failed / attempted is printed:
//
//   - batch: each call's partition and feature digest equals a workers=1
//     reference computed before timing, and IFL ≤ θ.
//   - serve: every /cell body and every stitched /view equal
//     cluster.ViewFromStreams (ignoring generations), checked after the
//     timed windows.
//   - ingest: every live /cell names a group holding the cell; afterwards
//     the acked count equals Σ WALAppended, and each shard's Grid() equals
//     the grid aggregated from its loaded and acked records.
//
// Before any timing, the deterministic counts of the default seed (a
// workers=1 run's core.evaluations, rung.eval spans, core.groups and IFL
// bits, and wal.records_per_fsync under sync=always) are compared with
// expected.json; a mismatch exits with status 3.
//
// # Tracing
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it adds a traced pass in which each stage's stack gets a
// fresh observer (its own registry and flight recorder); the benchmark wraps
// each call it makes in its own span and sends a W3C traceparent header with
// each request. That pass reports the per-layer metrics, the unsteady
// client numbers, error_rate and obs.trace_overhead_pct.<metric> (traced vs
// untraced, in percent), checks that a /cell trace connects bench.cell →
// cluster.request → server.request → stream.current, and writes each
// stage's spans as Perfetto-loadable JSON under .bench_build/perfbench/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultSeed is the seed whose deterministic counts expected.json pins.
const defaultSeed = 1

// outDir, relative to the checkout root, holds everything a run writes:
// WAL directories (removed at exit) and traces. run.sh builds there too.
var outDir = filepath.Join(".bench_build", "perfbench")

// workload is one input family: the batch dataset and its grid side, and
// the serving grid's side.
type workload struct {
	name    string
	dataset string
	batch   int
	side    int
}

var workloads = []workload{
	{name: "multi", dataset: "taxi-multi", batch: 512, side: 128},
	{name: "uni", dataset: "earnings-uni", batch: 512, side: 128},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "multi", "workload: multi or uni")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per pass, split over the three stages")
	trace := fs.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	work := filepath.Join(outDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	env := environment(dir, *seed)
	printJSON("env", env)

	if err := checkDeterministic(*w, dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: deterministic-count check failed:", err)
		return 3
	}

	cfg := passConfig{w: *w, seed: *seed, seconds: *seconds, dir: dir}
	if cfg.refs, err = references(*w, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: batch reference:", err)
		return 1
	}
	plain, err := runPass(cfg, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	plain.print("untraced")
	res := result{
		Correct:   plain.ok(),
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   plain.endToEnd(),
	}
	if *trace == 1 {
		cfg.traceDir = filepath.Join(outDir, "traces")
		traced, err := runPass(cfg, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		traced.print("traced")
		res.Correct = res.Correct && traced.ok()
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Metrics = traced.layers
		for k, v := range plain.unsteady() {
			res.Metrics[k] = v
		}
		for k, v := range overhead(plain, traced) {
			res.Metrics[k] = v
		}
		res.Metrics["error_rate"] = metric{errorRate(res.Failed, res.Attempted), "ratio"}
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n", errorRate(res.Failed, res.Attempted), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// overhead reports, for every client-visible metric, how far the traced pass
// read from the untraced one, in percent of the untraced value.
func overhead(plain, traced *passResult) map[string]metric {
	out := map[string]metric{}
	t := traced.client()
	for k, p := range plain.client() {
		v := 0.0
		if p.Value != 0 {
			v = (t[k].Value - p.Value) / p.Value * 100
		}
		out["obs.trace_overhead_pct."+k] = metric{v, "%"}
	}
	return out
}

// printJSON prints one labelled, human-readable JSON line.
func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

// printMetrics prints metrics one per line, sorted by name.
func printMetrics(label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %-40s %14.6g %s\n", label, k, m[k].Value, m[k].Unit)
	}
}

// joinErrs renders check failures for the human-readable output.
func joinErrs(errs []string) string {
	if len(errs) > 5 {
		errs = append(errs[:5:5], fmt.Sprintf("… and %d more", len(errs)-5))
	}
	return strings.Join(errs, "; ")
}
