package main

import (
	"os"
	"testing"
)

// tiny is a workload small enough for unit tests.
var tiny = workload{name: "tiny", dataset: "taxi-multi", batch: 64, side: 32}

// tinyPass configures a pass over the tiny workload.
func tinyPass(t *testing.T, seconds float64) passConfig {
	t.Helper()
	refs, err := references(tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	return passConfig{w: tiny, seed: 3, seconds: seconds, dir: t.TempDir(), traceDir: t.TempDir(), refs: refs}
}

// TestConsecutiveRunsReportIdenticalCounts pins the per-run observer: two
// traced passes in a row report the same per-grid evaluation and rung.eval
// counts, instead of the second pass accumulating the first's.
func TestConsecutiveRunsReportIdenticalCounts(t *testing.T) {
	cfg := tinyPass(t, 1)
	var got [2][2]float64
	for i := range got {
		res, err := runPass(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = [2]float64{res.layers["core.evaluations"].Value, res.layers["core.rung_evals"].Value}
	}
	if got[0][0] == 0 || got[0] != got[1] || got[0][0] != got[0][1] {
		t.Fatalf("(core.evaluations, core.rung_evals): first pass %v, second pass %v", got[0], got[1])
	}
}

// TestDeterministicCountsMatchExpected runs the default-seed check of every
// workload against expected.json.
func TestDeterministicCountsMatchExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("512² repartitions")
	}
	for _, w := range workloads {
		if err := checkDeterministic(w, t.TempDir()); err != nil {
			t.Error(err)
		}
	}
}

// TestTracedPassIsCorrectAndConnected runs a short traced pass end to end:
// every operation checks out, every per-layer metric is present, and the
// serve trace holds a connected client → cluster → server → stream chain.
func TestTracedPassIsCorrectAndConnected(t *testing.T) {
	cfg := tinyPass(t, 2)
	res, err := runPass(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || len(res.checkErrs) != 0 {
		t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.checkErrs)
	}
	for _, name := range []string{"core.evaluations", "serve.stream.refreshes", "ingest.stream.recomputes", "wal.records_per_fsync", "serve.cluster.view_self_ms"} {
		if _, ok := res.layers[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if got := res.layers["wal.records_per_fsync"].Value; got != 1 {
		t.Errorf("wal.records_per_fsync = %v under sync=always, want 1", got)
	}
	entries, err := os.ReadDir(cfg.traceDir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("trace files: %v (%v)", entries, err)
	}
}
