package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"spatialrepart/internal/cluster"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// ingestStage runs one closed-loop producer (stream.Add on the owning
// shard, routed by Plan.Route) beside one closed-loop /cell reader for d,
// and measures each acked record's freshness: the time from its ack to the
// first moment its shard's served view includes it. Records still pending
// when the slice ends are not sampled, so idle time between slices never
// counts as staleness.
func ingestStage(cfg passConfig, round int, st *stack, in *inputs, o *obs.Observer, d time.Duration, res *passResult) {
	// acks[k] holds the ack instants of shard k's records in ack order;
	// seen[k] how many of them a served view is known to include; base[k]
	// the shard's accepted count when the slice began.
	var mu sync.Mutex
	acks := make([][]time.Time, shards)
	seen := make([]int, shards)
	base := make([]int, shards)
	for k, s := range st.streams {
		base[k] = s.Stats().Accepted
	}
	start := time.Now()
	deadline := start.Add(d)
	var addErrs, readErrs []error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			k, local, ok := st.plan.Route(in.pool[res.next%len(in.pool)])
			res.next++
			if !ok {
				continue
			}
			sp, _ := requestTrace(o, "bench.add")
			t0 := time.Now()
			err := st.streams[k].Add(local)
			acked := time.Now()
			sp.End()
			res.acks = append(res.acks, acked.Sub(t0))
			addErrs = append(addErrs, err)
			if err != nil {
				continue
			}
			st.applied[k] = append(st.applied[k], local)
			mu.Lock()
			acks[k] = append(acks[k], acked)
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		client := newClient()
		defer client.CloseIdleConnections()
		rng := rand.New(rand.NewSource(-cfg.seed*1000 - int64(round)))
		for time.Now().Before(deadline) {
			row, col := rng.Intn(st.plan.Rows), rng.Intn(st.plan.Cols)
			sp, tp := requestTrace(o, "bench.cell")
			t0 := time.Now()
			status, body, err := getTraced(context.Background(), client, fmt.Sprintf("%s/cell?row=%d&col=%d", st.base, row, col), tp)
			now := time.Now()
			res.liveCell = append(res.liveCell, now.Sub(t0))
			sp.End()
			if err == nil {
				err = checkLiveCell(st.plan, status, body, row, col)
			}
			readErrs = append(readErrs, err)
			for k, s := range st.streams {
				stats := s.Stats()
				included := stats.Accepted - stats.StaleRecords - base[k]
				mu.Lock()
				for ; seen[k] < included && seen[k] < len(acks[k]); seen[k]++ {
					res.fresh = append(res.fresh, now.Sub(acks[k][seen[k]]))
				}
				mu.Unlock()
			}
		}
	}()
	wg.Wait()
	acked := 0
	for _, err := range addErrs {
		res.op(err)
		if err == nil {
			acked++
		}
	}
	for _, err := range readErrs {
		res.op(err)
	}
	res.acked += acked
	res.rps = append(res.rps, float64(acked)/time.Since(start).Seconds())
}

// checkLiveCell checks a /cell answer served during ingest: the view moves
// under it, so the check is that the answer is well formed and its group
// holds the cell.
func checkLiveCell(p cluster.Plan, status int, body []byte, row, col int) error {
	if status != http.StatusOK {
		return fmt.Errorf("ingest /cell: status %d", status)
	}
	var got cluster.CellBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("ingest /cell: %w", err)
	}
	g := got.Group
	if got.Row != row || got.Col != col || got.Shard != p.ShardFor(row) ||
		row < g.RowBegin || row > g.RowEnd || col < g.ColBegin || col > g.ColEnd {
		return fmt.Errorf("ingest /cell (%d,%d): group %d..%d×%d..%d does not hold the cell", row, col, g.RowBegin, g.RowEnd, g.ColBegin, g.ColEnd)
	}
	return nil
}

// checkIngest runs after the ingest stage: every acked record reached a
// WAL, and each shard's aggregate grid equals the grid aggregated from the
// records it was given.
func checkIngest(st *stack, in *inputs, res *passResult) {
	appended := 0
	for k, s := range st.streams {
		appended += s.Stats().WALAppended
		band := st.plan.Bands[k]
		want, _, err := grid.FromRecords(st.applied[k], band.Bounds, band.Rows(), st.plan.Cols, in.attrs)
		if err != nil {
			res.check(fmt.Errorf("ingest shard %d reference grid: %w", k, err))
			continue
		}
		if err := sameGrid(s.Grid(), want); err != nil {
			res.check(fmt.Errorf("ingest shard %d: %w", k, err))
		}
	}
	if appended != res.acked {
		res.check(fmt.Errorf("ingest: %d records acked but %d appended to the WALs", res.acked, appended))
	}
}

// sameGrid compares two grids bit for bit.
func sameGrid(got, want *grid.Grid) error {
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NumAttrs() != want.NumAttrs() {
		return fmt.Errorf("grid shape %dx%dx%d, want %dx%dx%d", got.Rows, got.Cols, got.NumAttrs(), want.Rows, want.Cols, want.NumAttrs())
	}
	for r := 0; r < got.Rows; r++ {
		for c := 0; c < got.Cols; c++ {
			if got.Valid(r, c) != want.Valid(r, c) {
				return fmt.Errorf("cell (%d,%d) validity differs", r, c)
			}
			if !got.Valid(r, c) {
				continue
			}
			for a := 0; a < got.NumAttrs(); a++ {
				if math.Float64bits(got.At(r, c, a)) != math.Float64bits(want.At(r, c, a)) {
					return fmt.Errorf("cell (%d,%d) attribute %d: %v, want %v", r, c, a, got.At(r, c, a), want.At(r, c, a))
				}
			}
		}
	}
	return nil
}
