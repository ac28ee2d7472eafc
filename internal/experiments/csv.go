package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
	"time"
)

// CSV writers, one per experiment row type — machine-readable counterparts
// of the Print* renderers for plotting pipelines.

// WriteCellReductionCSV writes Figs. 5-6 rows as CSV.
func WriteCellReductionCSV(w io.Writer, rows []CellReductionRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "size", "threshold", "cells", "valid", "groups", "reduction_pct", "ifl", "reduce_ms", "iterations"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Dataset, r.Size, ftoa(r.Threshold),
			strconv.Itoa(r.InitialCells), strconv.Itoa(r.ValidCells), strconv.Itoa(r.Groups),
			ftoa(r.ReductionPct), ftoa(r.IFL), ftoa(durMs(r.ReduceTime)), strconv.Itoa(r.Iterations),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTrainCostsCSV writes Figs. 7-10 rows as CSV.
func WriteTrainCostsCSV(w io.Writer, rows []TrainCostRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"model", "dataset", "method", "threshold", "instances", "train_ms", "time_red_pct", "train_bytes", "mem_red_pct"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			string(r.Model), r.Dataset, string(r.Method), ftoa(r.Threshold),
			strconv.Itoa(r.Instances), ftoa(durMs(r.TrainTime)), ftoa(r.TimePct),
			strconv.FormatUint(r.TrainMem, 10), ftoa(r.MemPct),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable2CSV writes Table II rows as CSV.
func WriteTable2CSV(w io.Writer, rows []ErrorRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"model", "dataset", "method", "threshold", "se", "r2", "mae", "rmse", "ifl", "instances"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			string(r.Model), r.Dataset, string(r.Method), ftoa(r.Threshold),
			ftoa(r.SE), ftoa(r.R2), ftoa(r.MAE), ftoa(r.RMSE), ftoa(r.IFL), strconv.Itoa(r.Instances),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable3CSV writes Table III rows as CSV.
func WriteTable3CSV(w io.Writer, rows []F1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"model", "dataset", "method", "threshold", "f1", "accuracy"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{string(r.Model), r.Dataset, string(r.Method), ftoa(r.Threshold), ftoa(r.F1), ftoa(r.Accuracy)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable4CSV writes Table IV rows as CSV.
func WriteTable4CSV(w io.Writer, rows []AgreementRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "method", "threshold", "agreement_pct"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Dataset, string(r.Method), ftoa(r.Threshold), ftoa(r.Agreement)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable5CSV writes Table V rows as CSV.
func WriteTable5CSV(w io.Writer, rows []HomogeneousRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "merge_2_rows", "merge_2_cols", "merge_both", "ml_aware_ifl", "ml_aware_reduction_pct"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Dataset, ftoa(r.MergeRows), ftoa(r.MergeCols), ftoa(r.MergeBoth), ftoa(r.MLAwareIFL), ftoa(r.MLAwareReductionPct)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
