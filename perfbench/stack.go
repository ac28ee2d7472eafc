package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"spatialrepart/internal/cluster"
	"spatialrepart/internal/core"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/server"
	"spatialrepart/internal/stream"
	"spatialrepart/internal/wal"
)

const (
	theta  = 0.1
	shards = 2 // row bands per cluster
	// recsPerCell is how many records per serving-grid cell the serve stack
	// loads in set-up.
	recsPerCell = 2.5
	poolRecs    = 200000 // the ingest feed
)

// inputs is everything a pass generates from its seed.
type inputs struct {
	batch   []*grid.Grid // batchGrids grids, called in turn
	side    int          // the serving grid is side × side
	bounds  grid.Bounds
	attrs   []grid.Attribute
	initial []grid.Record // loaded into the serve stack during set-up
	pool    []grid.Record // the ingest stage's feed, in order (wraps around)
}

// batchGrid generates the workload's batch grid.
func batchGrid(w workload, seed int64) (*grid.Grid, error) {
	d := datagen.ByName(w.dataset, seed, w.batch, w.batch)
	if d == nil {
		return nil, fmt.Errorf("unknown dataset %q", w.dataset)
	}
	return d.Grid, nil
}

// batchGrids is how many batch grids a pass calls Repartition on in turn.
// Grids differ in how many rungs the search evaluates, so with one grid per
// seed repart_s would follow the seed; three per run average that out.
const batchGrids = 3

// batchGridsOf generates the pass's batch grids from its seed.
func batchGridsOf(w workload, seed int64) ([]*grid.Grid, error) {
	gs := make([]*grid.Grid, batchGrids)
	for j := range gs {
		g, err := batchGrid(w, seed*batchGrids+int64(j))
		if err != nil {
			return nil, err
		}
		gs[j] = g
	}
	return gs, nil
}

func genInputs(w workload, seed int64) (*inputs, error) {
	gs, err := batchGridsOf(w, seed)
	if err != nil {
		return nil, err
	}
	initial := int(recsPerCell * float64(w.side*w.side))
	recs, bounds, attrs := datagen.TaxiRecords(seed, initial+poolRecs)
	return &inputs{batch: gs, side: w.side, bounds: bounds, attrs: attrs, initial: recs[:initial], pool: recs[initial:]}, nil
}

// stack is one in-process cluster: shard streams, each behind a shard HTTP
// server on loopback, and a coordinator in front.
type stack struct {
	plan    cluster.Plan
	streams []*stream.Repartitioner
	wals    []*wal.Log
	walDirs []string
	servers []*server.Server
	coord   *cluster.Coordinator
	base    string // coordinator URL
	// applied[k] lists the band-local records shard k has aggregated, in
	// order — the ingest check rebuilds each shard's grid from it.
	applied [][]grid.Record
}

// startServeStack builds the WAL-less stack and loads the initial records.
func startServeStack(in *inputs, o *obs.Observer) (*stack, error) {
	p, err := cluster.NewPlan(in.side, in.side, in.bounds, shards)
	if err != nil {
		return nil, err
	}
	st := &stack{plan: p, applied: make([][]grid.Record, shards)}
	for k := 0; k < shards; k++ {
		s, err := cluster.NewShard(p, k, in.attrs, stream.Options{Threshold: theta, Schedule: core.ScheduleGeometric, Obs: o})
		if err != nil {
			return nil, err
		}
		st.streams = append(st.streams, s)
	}
	for _, rec := range in.initial {
		k, local, ok := p.Route(rec)
		if !ok {
			continue
		}
		if err := st.streams[k].Add(local); err != nil {
			return nil, err
		}
		st.applied[k] = append(st.applied[k], local)
	}
	return st, st.serve(o)
}

// startIngestStack builds a stack whose shards each append to their own
// sync=always WAL under dir, restored from the serve stack's checkpoints.
func startIngestStack(from *stack, in *inputs, o *obs.Observer, dir string) (*stack, error) {
	st := &stack{plan: from.plan, applied: make([][]grid.Record, shards)}
	for k := 0; k < shards; k++ {
		walDir := filepath.Join(dir, fmt.Sprintf("shard-%d", k))
		wl, err := wal.Open(walDir, wal.Options{
			SyncEvery: 1,
			Stamp:     fmt.Sprintf("perfbench shard=%d/%d", k, shards),
			Obs:       o,
		})
		if err != nil {
			return nil, err
		}
		st.wals = append(st.wals, wl)
		st.walDirs = append(st.walDirs, walDir)
		s, err := cluster.NewShard(st.plan, k, in.attrs, stream.Options{Threshold: theta, Schedule: core.ScheduleGeometric, Obs: o, WAL: wl})
		if err != nil {
			st.close()
			return nil, err
		}
		var ckpt bytes.Buffer
		if err := from.streams[k].Checkpoint(&ckpt); err != nil {
			st.close()
			return nil, err
		}
		if err := s.Restore(&ckpt); err != nil {
			st.close()
			return nil, err
		}
		st.streams = append(st.streams, s)
		st.applied[k] = append([]grid.Record(nil), from.applied[k]...)
	}
	return st, st.serve(o)
}

// serve mounts the shard servers and the coordinator on loopback and fetches
// the first stitched view.
func (st *stack) serve(o *obs.Observer) error {
	backends := make([]string, 0, len(st.streams))
	for _, s := range st.streams {
		srv, err := server.New(server.Config{Source: s, Obs: o})
		if err != nil {
			st.close()
			return err
		}
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			st.close()
			return err
		}
		st.servers = append(st.servers, srv)
		backends = append(backends, "http://"+addr)
	}
	coord, err := cluster.New(cluster.Config{Plan: st.plan, Backends: backends, Obs: o})
	if err != nil {
		st.close()
		return err
	}
	addr, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		st.close()
		return err
	}
	st.coord, st.base = coord, "http://"+addr
	client := newClient()
	defer client.CloseIdleConnections()
	status, _, err := getTraced(context.Background(), client, st.base+"/view?groups=false", "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first /view: status %d", status)
	}
	if err != nil {
		st.close()
	}
	return err
}

// close shuts the coordinator, then the shards, then the WALs.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.coord != nil {
		_ = st.coord.Shutdown(ctx)
	}
	for _, srv := range st.servers {
		_ = srv.Shutdown(ctx)
	}
	for _, wl := range st.wals {
		_ = wl.Close()
	}
}

// newClient returns a client with one keep-alive connection, so each load
// goroutine holds exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// getTraced is get with an optional W3C traceparent header.
func getTraced(ctx context.Context, c *http.Client, url, traceparent string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}
