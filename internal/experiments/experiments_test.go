package experiments

import (
	"bytes"
	"testing"
)

// quickConfig is a fast configuration exercising every code path.
func quickConfig() Config {
	return Config{
		Seed:         7,
		Sizes:        []GridSize{{Name: "tiny", Rows: 12, Cols: 12}},
		ModelSize:    GridSize{Name: "tiny", Rows: 14, Cols: 14},
		Thresholds:   []float64{0.05, 0.15},
		TestFraction: 0.2,
		Classes:      3,
		ClusterK:     4,
		SVRMaxTrain:  500,
	}
}

func TestCellReduction(t *testing.T) {
	cfg := quickConfig()
	rows, err := CellReduction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 6 datasets × 1 size × 2 thresholds.
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.Groups > r.ValidCells {
			t.Errorf("%s: groups %d exceed valid cells %d", r.Dataset, r.Groups, r.ValidCells)
		}
		if r.IFL > r.Threshold+1e-9 {
			t.Errorf("%s: IFL %v exceeds threshold %v", r.Dataset, r.IFL, r.Threshold)
		}
		if r.ReductionPct < 0 || r.ReductionPct > 100 {
			t.Errorf("reduction%% = %v out of range", r.ReductionPct)
		}
	}
	// Higher thresholds reduce at least as much (per dataset).
	byDS := map[string][]CellReductionRow{}
	for _, r := range rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	for ds, rs := range byDS {
		if len(rs) == 2 && rs[0].Threshold < rs[1].Threshold && rs[1].Groups > rs[0].Groups {
			t.Errorf("%s: groups grew with threshold (%d → %d)", ds, rs[0].Groups, rs[1].Groups)
		}
	}
	var buf bytes.Buffer
	PrintCellReduction(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty rendering")
	}
}

func TestPrepareOriginalAndBaselines(t *testing.T) {
	cfg := quickConfig()
	l := newLab(cfg)
	orig, err := l.original("taxi-multi")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := l.dataset("taxi-multi")
	if orig.Instances() != d.Grid.ValidCount() {
		t.Fatalf("original instances = %d, want %d", orig.Instances(), d.Grid.ValidCount())
	}
	rep, err := l.repartition("taxi-multi", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances() >= orig.Instances() {
		t.Error("re-partitioning did not reduce instances")
	}
	for _, m := range []Method{MethodSampling, MethodRegionalization, MethodClustering} {
		b, err := l.baseline(m, "taxi-multi", 0.1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		// Matched partition counts: within the contiguity slack the baselines
		// must produce a comparable instance count.
		if b.Instances() < rep.Instances()/2 || b.Instances() > rep.Instances()*2 {
			t.Errorf("%s instances = %d, repartitioning = %d (should match roughly)", m, b.Instances(), rep.Instances())
		}
		// Every valid cell maps to an instance.
		for idx, inst := range b.CellInstance {
			r, c := d.Grid.CellAt(idx)
			if d.Grid.Valid(r, c) && inst < 0 {
				t.Fatalf("%s: valid cell %d unmapped", m, idx)
			}
			if inst >= b.Instances() {
				t.Fatalf("%s: instance index out of range", m)
			}
		}
	}
}

func TestRunRegressionAllModels(t *testing.T) {
	cfg := quickConfig()
	l := newLab(cfg)
	orig, err := l.original("taxi-multi")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := l.dataset("taxi-multi")
	for _, model := range RegressionModels {
		res, err := RunRegression(model, orig, d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if res.MAE < 0 || res.RMSE < res.MAE {
			t.Errorf("%s: MAE %v RMSE %v inconsistent", model, res.MAE, res.RMSE)
		}
		if res.TrainTime <= 0 {
			t.Errorf("%s: no training time measured", model)
		}
	}
	// Kriging runs on the univariate dataset.
	uni, err := l.original("taxi-uni")
	if err != nil {
		t.Fatal(err)
	}
	du, _ := l.dataset("taxi-uni")
	if _, err := RunRegression(ModelKriging, uni, du, cfg); err != nil {
		t.Fatalf("kriging: %v", err)
	}
	if _, err := RunRegression("bogus", orig, d, cfg); err == nil {
		t.Error("want unknown-model error")
	}
}

func TestRunRegressionRepartitionedEvaluatesAllTestCells(t *testing.T) {
	// Cell-level evaluation must cover every member cell of the test
	// instances, not just one value per instance.
	cfg := quickConfig()
	l := newLab(cfg)
	red, err := l.repartition("taxi-uni", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := l.dataset("taxi-uni")
	_, testIdx := red.Data.Split(cfg.Seed, cfg.TestFraction)
	pred := make([]float64, len(testIdx))
	cellPred, cellTruth := distributePredictions(red, d, testIdx, pred, false)
	wantCells := 0
	inTest := map[int]bool{}
	for _, i := range testIdx {
		inTest[i] = true
	}
	for _, inst := range red.CellInstance {
		if inst >= 0 && inTest[inst] {
			wantCells++
		}
	}
	if len(cellPred) != wantCells || len(cellTruth) != wantCells {
		t.Fatalf("evaluated %d cells, want %d", len(cellPred), wantCells)
	}
	if wantCells <= len(testIdx) {
		t.Fatalf("test instances should expand to more cells (%d vs %d)", wantCells, len(testIdx))
	}
}

func TestRunClassificationBothModels(t *testing.T) {
	cfg := quickConfig()
	l := newLab(cfg)
	orig, err := l.original("homesales")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := l.dataset("homesales")
	for _, model := range ClassificationModels {
		res, err := RunClassification(model, orig, d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if res.F1 < 0 || res.F1 > 1 {
			t.Errorf("%s: F1 = %v out of range", model, res.F1)
		}
	}
	if _, err := RunClassification(ModelLag, orig, d, cfg); err == nil {
		t.Error("want not-a-classifier error")
	}
}

func TestRunClustering(t *testing.T) {
	cfg := quickConfig()
	l := newLab(cfg)
	orig, err := l.original("earnings-multi")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := l.dataset("earnings-multi")
	res, err := RunClustering(orig, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != orig.Instances() {
		t.Fatalf("labels = %d, want %d", len(res.Labels), orig.Instances())
	}
}

func TestTable5(t *testing.T) {
	cfg := quickConfig()
	rows, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	cfg2 := quickConfig()
	thetaMax := cfg2.Thresholds[len(cfg2.Thresholds)-1]
	for _, r := range rows {
		// The Table V phenomenon: the homogeneous variant's very first merge
		// already exceeds the largest IFL threshold, while the ML-aware
		// framework reduces cells and stays bounded by construction.
		if r.MergeBoth <= thetaMax {
			t.Errorf("%s: homogeneous rows+cols IFL %v should exceed θmax %v", r.Dataset, r.MergeBoth, thetaMax)
		}
		if r.MLAwareIFL > thetaMax+1e-9 {
			t.Errorf("%s: ML-aware IFL %v exceeds threshold", r.Dataset, r.MLAwareIFL)
		}
		if r.MergeRows < 0 || r.MergeCols < 0 || r.MergeBoth < 0 {
			t.Errorf("%s: negative IFL", r.Dataset)
		}
	}
	var buf bytes.Buffer
	PrintTable5(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty rendering")
	}
}

func TestScheduleAblation(t *testing.T) {
	cfg := quickConfig()
	rows, err := ScheduleAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 6 datasets × 2 thresholds × 2 schedules.
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	// Pair up and compare.
	for i := 0; i < len(rows); i += 2 {
		exact, geom := rows[i], rows[i+1]
		if exact.Schedule != "exact" || geom.Schedule != "geometric" {
			t.Fatal("row order unexpected")
		}
		if exact.IFL > exact.Threshold || geom.IFL > geom.Threshold {
			t.Error("schedule exceeded threshold")
		}
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty rendering")
	}
}

func TestScalerStandardizes(t *testing.T) {
	x := [][]float64{{1, 100}, {3, 300}}
	s := FitScaler(x)
	xs := s.Transform(x)
	for j := 0; j < 2; j++ {
		if xs[0][j]+xs[1][j] != 0 {
			t.Errorf("column %d not centered: %v %v", j, xs[0][j], xs[1][j])
		}
	}
	// Constant column: std forced to 1, values 0.
	s2 := FitScaler([][]float64{{5}, {5}})
	if got := s2.Transform([][]float64{{5}})[0][0]; got != 0 {
		t.Errorf("constant column transform = %v, want 0", got)
	}
	if FitScaler(nil) == nil {
		t.Error("nil scaler")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Sizes) != 3 || len(cfg.Thresholds) != 3 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.Thresholds[0] != 0.05 || cfg.Thresholds[2] != 0.15 {
		t.Error("thresholds should be the paper's 0.05/0.1/0.15")
	}
	t.Setenv("REPRO_SCALE", "paper")
	p := DefaultConfig()
	if s := p.Sizes[2]; s.Rows*s.Cols < 100000 {
		t.Error("paper scale should reach ≈100k cells")
	}
	t.Setenv("REPRO_SCALE", "quick")
	q := DefaultConfig()
	if qs, ps := q.Sizes[0], p.Sizes[0]; qs.Rows*qs.Cols >= ps.Rows*ps.Cols {
		t.Error("quick scale should be smaller")
	}
}

func TestAllocationAblation(t *testing.T) {
	cfg := quickConfig()
	rows, err := AllocationAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 6 datasets × 2 thresholds
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		// Algorithm 2 picks the locally better representative per group, so
		// its IFL can never exceed mean-only allocation.
		if r.IFLBestOf > r.IFLMeanOnly+1e-12 {
			t.Errorf("%s@%v: best-of IFL %v exceeds mean-only %v", r.Dataset, r.Threshold, r.IFLBestOf, r.IFLMeanOnly)
		}
	}
	var buf bytes.Buffer
	PrintAllocationAblation(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty rendering")
	}
}

func TestExtractorAblation(t *testing.T) {
	cfg := quickConfig()
	rows, err := ExtractorAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.GreedyIFL > r.Threshold+1e-9 || r.QuadtreeIFL > r.Threshold+1e-9 {
			t.Errorf("%s@%v: extractor exceeded threshold (greedy %v, quad %v)",
				r.Dataset, r.Threshold, r.GreedyIFL, r.QuadtreeIFL)
		}
		if r.GreedyGroups <= 0 || r.QuadtreeGroups <= 0 {
			t.Errorf("%s@%v: empty partition", r.Dataset, r.Threshold)
		}
	}
	// Aggregate claim: greedy growing needs no more groups than quadtree
	// splitting, summed over the whole sweep.
	gSum, qSum := 0, 0
	for _, r := range rows {
		gSum += r.GreedyGroups
		qSum += r.QuadtreeGroups
	}
	if gSum > qSum {
		t.Errorf("greedy total %d groups should not exceed quadtree total %d", gSum, qSum)
	}
	var buf bytes.Buffer
	PrintExtractorAblation(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty rendering")
	}
}

func TestRegressionTrainingCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := quickConfig()
	rows, err := RegressionTrainingCosts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// (3 multivariate × 5 models + 3 univariate × kriging) × (1 original + 2 thresholds).
	if len(rows) != 18*3 {
		t.Fatalf("rows = %d, want 54", len(rows))
	}
	for _, r := range rows {
		if r.Method == MethodOriginal && (r.TimePct != 0 || r.MemPct != 0) {
			t.Errorf("original rows must have zero reductions: %+v", r)
		}
		if r.Instances <= 0 {
			t.Errorf("no instances: %+v", r)
		}
	}
}

func TestClusteringClassificationCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := quickConfig()
	rows, err := ClusteringClassificationCosts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// (3 multivariate × 2 classifiers + 6 clustering) × 3 preparations.
	if len(rows) != 12*3 {
		t.Fatalf("rows = %d, want 36", len(rows))
	}
}

func TestTable2QuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := quickConfig()
	cfg.Thresholds = []float64{0.1}
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// (3 datasets × 5 models + 3 kriging) × (1 original + 4 methods).
	if len(rows) != 18*5 {
		t.Fatalf("rows = %d, want 90", len(rows))
	}
	sums := SummarizeTable2(rows)
	if len(sums) != 18 {
		t.Fatalf("summaries = %d, want 18", len(sums))
	}
}

func TestTable3And4QuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := quickConfig()
	cfg.Thresholds = []float64{0.1}
	f1, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != 6*5 {
		t.Fatalf("table3 rows = %d, want 30", len(f1))
	}
	ag, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ag) != 6*4 {
		t.Fatalf("table4 rows = %d, want 24", len(ag))
	}
	for _, r := range ag {
		if r.Agreement < 0 || r.Agreement > 100 {
			t.Errorf("agreement %v out of range", r.Agreement)
		}
	}
}
