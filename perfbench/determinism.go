package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"

	"spatialrepart"
	"spatialrepart/internal/core"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/stream"
	"spatialrepart/internal/wal"
)

// expectedJSON pins, per workload, the counts the default seed must
// reproduce exactly on any machine: they depend on the code and the seed,
// never on timing or core count.
//
//go:embed expected.json
var expectedJSON []byte

// counts are the deterministic quantities of one workload.
type counts struct {
	Evaluations     int     `json:"core.evaluations"`
	RungEvals       int64   `json:"rung.eval"`
	Groups          int     `json:"core.groups"`
	IFLBits         string  `json:"ifl_bits"`
	RecordsPerFsync float64 `json:"wal.records_per_fsync"`
}

// measureCounts runs the default seed's batch grid once at workers=1 with a
// private observer, and ingests a few records through a sync=always WAL.
func measureCounts(w workload, dir string) (counts, error) {
	g, err := batchGrid(w, defaultSeed)
	if err != nil {
		return counts{}, err
	}
	o := obs.New()
	rp, rep, err := spatialrepart.RepartitionWithReport(g, spatialrepart.Options{Threshold: theta, Schedule: spatialrepart.ScheduleGeometric, Workers: 1, Obs: o})
	if err != nil {
		return counts{}, err
	}
	c := counts{
		Evaluations: rep.Evaluations,
		RungEvals:   o.Registry().Snapshot().Histograms["span.rung.eval"].Count,
		Groups:      rp.NumGroups(),
		IFLBits:     strconv.FormatUint(math.Float64bits(rp.IFL), 16),
	}

	wo := obs.New()
	wl, err := wal.Open(filepath.Join(dir, "determinism-wal"), wal.Options{SyncEvery: 1, Obs: wo})
	if err != nil {
		return counts{}, err
	}
	defer wl.Close()
	recs, bounds, attrs := datagen.TaxiRecords(defaultSeed, 64)
	s, err := stream.New(bounds, w.side, w.side, attrs, stream.Options{Threshold: theta, Schedule: core.ScheduleGeometric, WAL: wl})
	if err != nil {
		return counts{}, err
	}
	for _, rec := range recs {
		if err := s.Add(rec); err != nil {
			return counts{}, err
		}
	}
	snap := wo.Registry().Snapshot()
	c.RecordsPerFsync = ratio(float64(snap.Counters["wal.appended"]), float64(snap.Histograms["wal.fsync_ns"].Count))
	return c, nil
}

// checkDeterministic compares measureCounts with expected.json.
func checkDeterministic(w workload, dir string) error {
	var want map[string]counts
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	got, err := measureCounts(w, dir)
	if err != nil {
		return err
	}
	printJSON("counts", got)
	if got != want[w.name] {
		return fmt.Errorf("workload %s: got %+v, expected.json pins %+v", w.name, got, want[w.name])
	}
	return nil
}
