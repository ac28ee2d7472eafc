package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	recs, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	return recs
}

func TestWriteCellReductionCSV(t *testing.T) {
	rows := []CellReductionRow{{
		Dataset: "taxi-uni", Size: "small", Threshold: 0.05,
		InitialCells: 100, ValidCells: 90, Groups: 60,
		ReductionPct: 33.3, IFL: 0.049, ReduceTime: 5 * time.Millisecond, Iterations: 9,
	}}
	var buf bytes.Buffer
	if err := WriteCellReductionCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][0] != "taxi-uni" || recs[1][8] != "5" {
		t.Errorf("row = %v", recs[1])
	}
}

func TestWriteTrainCostsCSV(t *testing.T) {
	rows := []TrainCostRow{{
		Model: ModelSVR, Dataset: "d", Method: MethodRepartitioning, Threshold: 0.1,
		Instances: 10, TrainTime: time.Second, TrainMem: 1024, TimePct: 50, MemPct: 25,
	}}
	var buf bytes.Buffer
	if err := WriteTrainCostsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf)
	if recs[1][5] != "1000" || recs[1][7] != "1024" {
		t.Errorf("row = %v", recs[1])
	}
}

func TestWriteTableCSVs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable2CSV(&buf, []ErrorRow{{Model: ModelLag, Dataset: "d", Method: MethodOriginal, RMSE: 2.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2.5") {
		t.Error("table2 CSV missing data")
	}
	buf.Reset()
	if err := WriteTable3CSV(&buf, []F1Row{{Model: ModelGB, Dataset: "d", Method: MethodSampling, F1: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.9") {
		t.Error("table3 CSV missing data")
	}
	buf.Reset()
	if err := WriteTable4CSV(&buf, []AgreementRow{{Dataset: "d", Method: MethodClustering, Agreement: 97.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "97.5") {
		t.Error("table4 CSV missing data")
	}
	buf.Reset()
	if err := WriteTable5CSV(&buf, []HomogeneousRow{{Dataset: "d", MergeBoth: 0.4}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.4") {
		t.Error("table5 CSV missing data")
	}
}
