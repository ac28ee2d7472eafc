package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"time"

	"spatialrepart/internal/cluster"
	"spatialrepart/internal/obs"
)

// cellReply is one /cell answer kept for the post-window check.
type cellReply struct {
	row, col int
	body     []byte
	err      error
}

// viewReply is one /view answer kept for the post-window check: the head of
// the body (everything before the group list, re-closed as JSON) and a
// checksum of the group list, so a 1 MB body is not held per request.
type viewReply struct {
	head []byte
	crc  uint32
	err  error
}

// groupsKey marks where the stitched group list starts in a /view body.
var groupsKey = []byte(`,"cell_groups":`)

func splitView(body []byte) (viewReply, bool) {
	i := bytes.Index(body, groupsKey)
	if i < 0 {
		return viewReply{}, false
	}
	head := append(append([]byte(nil), body[:i]...), '}')
	return viewReply{head: head, crc: crc32.ChecksumIEEE(body[i:])}, true
}

// requestTrace opens the benchmark's own client span and returns the
// traceparent to send (empty when untraced).
func requestTrace(o *obs.Observer, name string) (obs.Span, string) {
	ctx, sp := o.StartSpanCtx(context.Background(), name)
	if tc, ok := obs.TraceFromContext(ctx); ok {
		return sp, tc.Traceparent()
	}
	return sp, ""
}

// serveStage runs the /cell and /view closed-loop clients against the
// serve stack for d, keeping every answer for checkServe.
func serveStage(cfg passConfig, round int, st *stack, o *obs.Observer, d time.Duration, res *passResult) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		client := newClient()
		defer client.CloseIdleConnections()
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(round)))
		for time.Now().Before(deadline) {
			row, col := rng.Intn(st.plan.Rows), rng.Intn(st.plan.Cols)
			sp, tp := requestTrace(o, "bench.cell")
			start := time.Now()
			status, body, err := getTraced(context.Background(), client, fmt.Sprintf("%s/cell?row=%d&col=%d", st.base, row, col), tp)
			res.cell = append(res.cell, time.Since(start))
			sp.End()
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("serve /cell: status %d", status)
			}
			res.cells = append(res.cells, cellReply{row, col, body, err})
		}
	}()
	go func() {
		defer wg.Done()
		client := newClient()
		defer client.CloseIdleConnections()
		for time.Now().Before(deadline) {
			sp, tp := requestTrace(o, "bench.view")
			start := time.Now()
			status, body, err := getTraced(context.Background(), client, st.base+"/view", tp)
			res.view = append(res.view, time.Since(start))
			sp.End()
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("serve /view: status %d", status)
			}
			vr, ok := splitView(body)
			if err == nil && !ok {
				err = fmt.Errorf("serve /view: no cell_groups in body")
			}
			vr.err = err
			res.views = append(res.views, vr)
		}
	}()
	wg.Wait()
}

// checkServe checks every serve-stage answer against the in-process
// reference, outside the timed windows. Nothing is ingested into the serve
// stack, so every answer must match it up to generation numbers.
func checkServe(st *stack, res *passResult) {
	want, err := cluster.ViewFromStreams(st.plan, st.streams)
	if err != nil {
		res.check(fmt.Errorf("serve reference: %w", err))
		return
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		res.check(err)
		return
	}
	wantView, _ := splitView(append(wantBody, '\n'))
	wantHead := viewHead(wantView.head)
	owner := groupIndex(want)
	for _, vr := range res.views {
		err := vr.err
		if err == nil && vr.crc != wantView.crc {
			err = fmt.Errorf("serve /view: stitched groups differ from ViewFromStreams")
		}
		if err == nil && !reflect.DeepEqual(viewHead(vr.head), wantHead) {
			err = fmt.Errorf("serve /view: summary differs from ViewFromStreams")
		}
		res.op(err)
	}
	for _, cr := range res.cells {
		err := cr.err
		if err == nil {
			err = checkCell(st.plan, want, owner, cr)
		}
		res.op(err)
	}
}

// viewHead decodes a /view head with the shard generations zeroed, which
// move on every read and are not part of the answer.
func viewHead(head []byte) cluster.ViewBody {
	var vb cluster.ViewBody
	if err := json.Unmarshal(head, &vb); err != nil {
		return cluster.ViewBody{Groups: -1}
	}
	for i := range vb.Shards {
		vb.Shards[i].Generation = 0
	}
	return vb
}

// groupIndex maps every global cell to its stitched group.
func groupIndex(v cluster.ViewBody) []int {
	owner := make([]int, v.Rows*v.Cols)
	for gi, g := range v.CellGroups {
		for r := g.RowBegin; r <= g.RowEnd; r++ {
			for c := g.ColBegin; c <= g.ColEnd; c++ {
				owner[r*v.Cols+c] = gi
			}
		}
	}
	return owner
}

// checkCell compares one /cell answer with the stitched group that holds
// the cell. Group IDs are shard-local on /cell and global on /view, so the
// ID is not compared.
func checkCell(p cluster.Plan, want cluster.ViewBody, owner []int, cr cellReply) error {
	var got cluster.CellBody
	if err := json.Unmarshal(cr.body, &got); err != nil {
		return fmt.Errorf("serve /cell: %w", err)
	}
	g := want.CellGroups[owner[cr.row*want.Cols+cr.col]]
	got.Group.ID = g.ID
	if got.Row != cr.row || got.Col != cr.col || got.Shard != p.ShardFor(cr.row) || !reflect.DeepEqual(got.Group, g) {
		return fmt.Errorf("serve /cell (%d,%d): answer differs from ViewFromStreams", cr.row, cr.col)
	}
	return nil
}
