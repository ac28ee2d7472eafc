package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/server"
	"spatialrepart/internal/stream"
	"spatialrepart/internal/testutil"
)

func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }

func testAttrs() []grid.Attribute {
	return []grid.Attribute{{Name: "v", Agg: grid.Average}, {Name: "n", Agg: grid.Sum, Integer: true}}
}

func testRecords(rng *rand.Rand, b grid.Bounds, n int) []grid.Record {
	recs := make([]grid.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, grid.Record{
			Lat:    b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lon:    b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
			Values: []float64{rng.NormFloat64(), float64(rng.Intn(5))},
		})
	}
	return recs
}

// testCluster is a full in-process cluster: plan, shard streams, shard HTTP
// servers, and a coordinator mounted on httptest.
type testCluster struct {
	plan    Plan
	streams []*stream.Repartitioner
	shards  []*httptest.Server
	coord   *Coordinator
	front   *httptest.Server
}

// startCluster ingests recs into `shards` shard streams (routed via the
// plan) and mounts the whole cluster. mutate lets a test wrap shard handlers
// (nil = plain shard servers).
func startCluster(t *testing.T, rows, cols, shards int, recs []grid.Record,
	cfgTweak func(*Config), wrap func(i int, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	p, err := NewPlan(rows, cols, testBounds(), shards)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{plan: p}
	backends := make([]string, shards)
	for i := 0; i < shards; i++ {
		s, err := NewShard(p, i, testAttrs(), stream.Options{Threshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		tc.streams = append(tc.streams, s)
		srv, err := server.New(server.Config{Source: s})
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(srv.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		tc.shards = append(tc.shards, ts)
		backends[i] = ts.URL
	}
	for _, rec := range recs {
		shard, local, ok := p.Route(rec)
		if !ok {
			continue
		}
		if err := tc.streams[shard].Add(local); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Plan: p, Backends: backends}
	if cfgTweak != nil {
		cfgTweak(&cfg)
	}
	tc.coord, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.front = httptest.NewServer(tc.coord.Handler())
	t.Cleanup(tc.close)
	return tc
}

func (tc *testCluster) close() {
	if tc.front != nil {
		tc.front.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tc.coord.Shutdown(ctx)
	for _, s := range tc.shards {
		s.Close()
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestSingleShardViewMatchesUnshardedServer is the N=1 anchor of the
// byte-identity property: a one-shard cluster's stitched cell-groups are the
// EXACT bytes the plain unsharded server emits for the same records, and the
// summary fields agree.
func TestSingleShardViewMatchesUnshardedServer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := testRecords(rng, testBounds(), 600)

	tc := startCluster(t, 8, 8, 1, recs, nil, nil)
	resp, clusterBody := getBody(t, tc.front.URL+"/view")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("healthy cluster /view: status %d warning %q", resp.StatusCode, resp.Header.Get("Warning"))
	}

	// The unsharded reference: same records, one stream over the full grid.
	ref, err := stream.New(testBounds(), 8, 8, testAttrs(), stream.Options{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := ref.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	refSrv, err := server.New(server.Config{Source: ref})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	_, refBody := getBody(t, refTS.URL+"/view")

	var cv ViewBody
	var sv server.ViewBody
	if err := json.Unmarshal(clusterBody, &cv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(refBody, &sv); err != nil {
		t.Fatal(err)
	}
	if cv.Degraded || len(cv.MissingShards) != 0 {
		t.Fatalf("healthy cluster degraded=%t missing=%v", cv.Degraded, cv.MissingShards)
	}
	if cv.Rows != sv.Rows || cv.Cols != sv.Cols || cv.Groups != sv.Groups ||
		cv.ValidGroups != sv.ValidGroups || cv.IFL != sv.IFL {
		t.Fatalf("summary mismatch: cluster %+v vs server rows=%d cols=%d groups=%d valid=%d ifl=%v",
			cv, sv.Rows, sv.Cols, sv.Groups, sv.ValidGroups, sv.IFL)
	}
	cg, _ := json.Marshal(cv.CellGroups)
	sg, _ := json.Marshal(sv.CellGroups)
	if !bytes.Equal(cg, sg) {
		t.Fatalf("cell-group bytes differ:\ncluster: %s\nserver:  %s", cg, sg)
	}
}

// TestStitchedViewMatchesInProcessReference: for N∈{1,2,4}, the coordinator's
// HTTP /view is byte-identical to ViewFromStreams over the same shard
// streams — the full wire body, not just the groups.
func TestStitchedViewMatchesInProcessReference(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + shards)))
			recs := testRecords(rng, testBounds(), 800)
			tc := startCluster(t, 12, 6, shards, recs, nil, nil)

			// Warm every shard so the reference call below cannot trigger a
			// fresh recompute between the two observations.
			for _, s := range tc.streams {
				if _, err := s.Current(); err != nil {
					t.Fatal(err)
				}
			}
			resp, httpBody := getBody(t, tc.front.URL+"/view")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/view status %d: %s", resp.StatusCode, httpBody)
			}
			ref, err := ViewFromStreams(tc.plan, tc.streams)
			if err != nil {
				t.Fatal(err)
			}
			var refBuf bytes.Buffer
			if err := json.NewEncoder(&refBuf).Encode(ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(httpBody, refBuf.Bytes()) {
				t.Fatalf("HTTP view != in-process reference:\nhttp: %s\nref:  %s", httpBody, refBuf.Bytes())
			}
		})
	}
}

// encodedReference is ViewFromStreams over the cluster's shard streams,
// encoded exactly as the coordinator writes it.
func encodedReference(t *testing.T, tc *testCluster, includeGroups bool) []byte {
	t.Helper()
	ref, err := ViewFromStreams(tc.plan, tc.streams)
	if err != nil {
		t.Fatal(err)
	}
	if !includeGroups {
		ref.CellGroups = nil
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStitchedViewMemo: repeated /view reads of an unchanged cluster serve
// identical bytes equal to the in-process reference; new records on one
// shard show up in the next read; a response with a missing shard is
// flagged and never memoized, and the first healthy read after recovery
// equals the reference again.
func TestStitchedViewMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var down atomic.Bool
	tc := startCluster(t, 10, 6, 2, testRecords(rng, testBounds(), 600), func(cfg *Config) {
		// Keep shard 1's breaker closed through the outage and its retry
		// backoff short, so recovery shows within milliseconds.
		cfg.FailureThreshold = 1000
		cfg.InitialBackoff, cfg.MaxBackoff = time.Millisecond, time.Millisecond
	}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 1 && down.Load() {
				server.WriteError(w, server.ErrOverloaded)
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	read := func(step string, wantBody []byte) []byte {
		t.Helper()
		resp, body := getBody(t, tc.front.URL+"/view")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
			t.Fatalf("%s: status %d warning %q", step, resp.StatusCode, resp.Header.Get("Warning"))
		}
		if wantBody != nil && !bytes.Equal(body, wantBody) {
			t.Fatalf("%s: /view != reference:\nhttp: %s\nref:  %s", step, body, wantBody)
		}
		return body
	}

	first := read("first read", nil)
	ref := encodedReference(t, tc, true)
	if !bytes.Equal(first, ref) {
		t.Fatalf("first read != reference:\nhttp: %s\nref:  %s", first, ref)
	}
	for i := 0; i < 3; i++ {
		read(fmt.Sprintf("repeat %d", i), ref)
	}
	resp, summary := getBody(t, tc.front.URL+"/view?groups=false")
	if want := encodedReference(t, tc, false); resp.StatusCode != http.StatusOK || !bytes.Equal(summary, want) {
		t.Fatalf("summary /view != reference:\nhttp: %s\nref:  %s", summary, want)
	}

	// New records inside shard 0's band: the next read is stitched afresh.
	for _, rec := range testRecords(rng, tc.plan.Bands[0].Bounds, 40) {
		if shard, local, ok := tc.plan.Route(rec); ok {
			if err := tc.streams[shard].Add(local); err != nil {
				t.Fatal(err)
			}
		}
	}
	changed := read("after ingest", nil)
	ref = encodedReference(t, tc, true)
	if !bytes.Equal(changed, ref) || bytes.Equal(changed, first) {
		t.Fatalf("after ingest: /view did not move to the new reference:\nhttp: %s\nref:  %s", changed, ref)
	}

	// Shard 1 answers 503: a flagged partial response, not memoized.
	down.Store(true)
	resp, body := getBody(t, tc.front.URL+"/view")
	var cv ViewBody
	if err := json.Unmarshal(body, &cv); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Warning"), "110") ||
		!cv.Degraded || len(cv.MissingShards) != 1 || cv.MissingShards[0] != 1 {
		t.Fatalf("shard 1 down: status %d warning %q degraded=%t missing=%v",
			resp.StatusCode, resp.Header.Get("Warning"), cv.Degraded, cv.MissingShards)
	}
	tc.coord.viewMu.Lock()
	memo := tc.coord.views[1]
	tc.coord.viewMu.Unlock()
	if !bytes.Equal(memo.body, changed) || memo.degraded {
		t.Fatalf("partial response replaced the memo: %s", memo.body)
	}

	// The breaker still refuses shard 1 for its (1ms) backoff window, so
	// poll for the first healthy response.
	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = getBody(t, tc.front.URL+"/view")
		if resp.StatusCode == http.StatusOK && resp.Header.Get("Warning") == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no healthy /view after recovery: status %d warning %q", resp.StatusCode, resp.Header.Get("Warning"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !bytes.Equal(body, ref) {
		t.Fatalf("first healthy read after recovery != reference:\nhttp: %s\nref:  %s", body, ref)
	}
}

// TestStitchedViewMemoConcurrentReaders: concurrent /view readers of both
// groups values all get the reference bytes while they race to fill and
// reuse the memo.
func TestStitchedViewMemoConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tc := startCluster(t, 8, 6, 2, testRecords(rng, testBounds(), 400), nil, nil)
	want := map[bool][]byte{true: encodedReference(t, tc, true), false: encodedReference(t, tc, false)}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			includeGroups := g%2 == 0
			url := tc.front.URL + "/view"
			if !includeGroups {
				url += "?groups=false"
			}
			for i := 0; i < 5; i++ {
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[includeGroups]) {
					errs <- fmt.Errorf("reader %d read %d: status %d body %s", g, i, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCellAndGroupRouting: point queries are routed to the owning shard and
// translated back into the global frame, agreeing with the stitched view.
func TestCellAndGroupRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	recs := testRecords(rng, testBounds(), 500)
	tc := startCluster(t, 10, 5, 2, recs, nil, nil)

	_, viewBody := getBody(t, tc.front.URL+"/view")
	var cv ViewBody
	if err := json.Unmarshal(viewBody, &cv); err != nil {
		t.Fatal(err)
	}
	groupAt := func(row, col int) server.GroupBody {
		for _, g := range cv.CellGroups {
			if row >= g.RowBegin && row <= g.RowEnd && col >= g.ColBegin && col <= g.ColEnd {
				return g
			}
		}
		t.Fatalf("no stitched group covers (%d,%d)", row, col)
		return server.GroupBody{}
	}
	for _, cell := range [][2]int{{0, 0}, {4, 4}, {5, 0}, {9, 4}} {
		row, col := cell[0], cell[1]
		resp, body := getBody(t, fmt.Sprintf("%s/cell?row=%d&col=%d", tc.front.URL, row, col))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/cell(%d,%d) status %d: %s", row, col, resp.StatusCode, body)
		}
		var cb CellBody
		if err := json.Unmarshal(body, &cb); err != nil {
			t.Fatal(err)
		}
		if cb.Row != row || cb.Col != col || cb.Shard != tc.plan.ShardFor(row) {
			t.Fatalf("/cell(%d,%d) = %+v", row, col, cb)
		}
		want := groupAt(row, col)
		if cb.Group.RowBegin != want.RowBegin || cb.Group.RowEnd != want.RowEnd ||
			cb.Group.ColBegin != want.ColBegin || cb.Group.ColEnd != want.ColEnd ||
			cb.Group.Null != want.Null {
			t.Fatalf("/cell(%d,%d) group %+v, stitched view has %+v", row, col, cb.Group, want)
		}

		resp, body = getBody(t, fmt.Sprintf("%s/group?row=%d&col=%d", tc.front.URL, row, col))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/group(%d,%d) status %d: %s", row, col, resp.StatusCode, body)
		}
		var gb GroupQueryBody
		if err := json.Unmarshal(body, &gb); err != nil {
			t.Fatal(err)
		}
		if gb.Group.RowBegin != want.RowBegin || gb.Group.RowEnd != want.RowEnd {
			t.Fatalf("/group(%d,%d) = %+v, want extent of %+v", row, col, gb.Group, want)
		}
	}

	// Bad and out-of-grid coordinates are rejected by the coordinator
	// itself, without consulting any shard.
	for url, wantStatus := range map[string]int{
		"/cell?row=abc&col=0": http.StatusBadRequest,
		"/cell?row=10&col=0":  http.StatusNotFound,
		"/cell?row=0&col=-1":  http.StatusNotFound,
		"/group?row=0&col=99": http.StatusNotFound,
	} {
		resp, body := getBody(t, tc.front.URL+url)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s status %d (want %d): %s", url, resp.StatusCode, wantStatus, body)
		}
	}
}

// TestShardErrorPassthrough: a shard's 4xx taxonomy answer is relayed
// verbatim — status and body — so clients see the shard's own error codes.
func TestShardErrorPassthrough(t *testing.T) {
	p, err := NewPlan(4, 4, testBounds(), 1)
	if err != nil {
		t.Fatal(err)
	}
	notFound := `{"error":"not_found","detail":"synthetic"}` + "\n"
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, notFound)
	}))
	defer backend.Close()
	c, err := New(Config{Plan: p, Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	resp, body := getBody(t, front.URL+"/cell?row=1&col=1")
	if resp.StatusCode != http.StatusNotFound || string(body) != notFound {
		t.Fatalf("passthrough: status %d body %q, want 404 %q", resp.StatusCode, body, notFound)
	}
}

// TestTraceparentPropagation: the coordinator adopts an inbound traceparent,
// echoes it on the response, and forwards the same trace ID to the shards.
func TestTraceparentPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := testRecords(rng, testBounds(), 100)
	var shardSaw []string
	tc := startCluster(t, 4, 4, 1, recs, nil, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			shardSaw = append(shardSaw, r.Header.Get("traceparent"))
			h.ServeHTTP(w, r)
		})
	})

	const inbound = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodGet, tc.front.URL+"/view", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	const traceID = "0123456789abcdef0123456789abcdef"
	if echoed := resp.Header.Get("traceparent"); !contains(echoed, traceID) {
		t.Fatalf("response traceparent %q does not carry inbound trace %s", echoed, traceID)
	}
	if len(shardSaw) == 0 {
		t.Fatal("shard never saw a request")
	}
	for _, tp := range shardSaw {
		if !contains(tp, traceID) {
			t.Fatalf("shard saw traceparent %q, want trace %s", tp, traceID)
		}
	}
}

// TestSpanningFragmentsOverWire: cluster-aware backends may emit parent_*
// fields for border-spanning groups; the coordinator stitches them — and
// refuses to stitch a generation mix — straight off the wire.
func TestSpanningFragmentsOverWire(t *testing.T) {
	p, err := NewPlan(4, 2, testBounds(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// One global group spanning both bands: rows 0..3, cols 0..1.
	mkBackend := func(band Band, generation int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/view" {
				http.NotFound(w, r)
				return
			}
			parent := map[string]any{
				"id": 0,
				// local coordinates of the band's slice
				"row_begin": 0, "row_end": band.Rows() - 1,
				"col_begin": 0, "col_end": 1,
				"cells": band.Rows() * 2, "features": []float64{3.25},
				"parent_row_begin": 0, "parent_row_end": 3,
				"parent_col_begin": 0, "parent_col_end": 1,
			}
			json.NewEncoder(w).Encode(map[string]any{
				"generation": generation, "rows": band.Rows(), "cols": 2,
				"groups": 1, "valid_groups": 1, "ifl": 0.125,
				"cell_groups": []any{parent},
			})
		}))
	}

	t.Run("same generation stitches", func(t *testing.T) {
		b0, b1 := mkBackend(p.Bands[0], 7), mkBackend(p.Bands[1], 7)
		defer b0.Close()
		defer b1.Close()
		c, err := New(Config{Plan: p, Backends: []string{b0.URL, b1.URL}})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdownCoordinator(t, c)
		front := httptest.NewServer(c.Handler())
		defer front.Close()
		resp, body := getBody(t, front.URL+"/view")
		var cv ViewBody
		if err := json.Unmarshal(body, &cv); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || cv.Degraded || cv.Groups != 1 {
			t.Fatalf("status %d degraded=%t groups=%d: %s", resp.StatusCode, cv.Degraded, cv.Groups, body)
		}
		g := cv.CellGroups[0]
		if g.RowBegin != 0 || g.RowEnd != 3 || g.ColBegin != 0 || g.ColEnd != 1 || g.Cells != 8 {
			t.Fatalf("stitched spanning group = %+v", g)
		}
		if cv.IFL != 0.125 {
			t.Fatalf("stitched IFL = %v, want 0.125", cv.IFL)
		}
	})

	t.Run("generation mix is dropped, never merged", func(t *testing.T) {
		b0, b1 := mkBackend(p.Bands[0], 7), mkBackend(p.Bands[1], 8)
		defer b0.Close()
		defer b1.Close()
		c, err := New(Config{Plan: p, Backends: []string{b0.URL, b1.URL}})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdownCoordinator(t, c)
		front := httptest.NewServer(c.Handler())
		defer front.Close()
		resp, body := getBody(t, front.URL+"/view")
		var cv ViewBody
		if err := json.Unmarshal(body, &cv); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if cv.Groups != 0 || len(cv.DroppedGroups) != 1 ||
			cv.DroppedGroups[0].Reason != "generation mix across fragments" {
			t.Fatalf("generation mix: groups=%d dropped=%+v", cv.Groups, cv.DroppedGroups)
		}
		if !cv.Degraded || resp.Header.Get("Warning") == "" {
			t.Fatalf("dropped-group response not marked degraded (warning %q)", resp.Header.Get("Warning"))
		}
	})
}

// TestDrainingCoordinator: after Shutdown begins, new queries shed 503
// draining with a jittered Retry-After, and /readyz flips not-ready.
func TestDrainingCoordinator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tc := startCluster(t, 4, 4, 1, testRecords(rng, testBounds(), 50), func(cfg *Config) {
		cfg.RetryAfter = 4 * time.Second
	}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tc.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/view", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /view status %d, want 503", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("draining shed carries no Retry-After")
	}
	var secs int
	fmt.Sscanf(ra, "%d", &secs)
	if secs < 2 || secs > 4 {
		t.Fatalf("Retry-After %q outside the jittered [2,4] band for RetryAfter=4s", ra)
	}

	rec = httptest.NewRecorder()
	tc.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz status %d, want 503", rec.Code)
	}
}

// TestCoordinatorShedAccounting overloads a one-slot coordinator and drains
// it mid-burst: one request holds the slot (blocked at its shard), one
// queues, one finds the queue full, the drain rejects the queued one, and a
// late arrival meets the closed gate. The shed and admitted counters must
// reconcile exactly with the 503s and 200s the clients saw.
func TestCoordinatorShedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	obsv := obs.New()
	entered, release := make(chan struct{}), make(chan struct{})
	var blocked atomic.Bool
	tc := startCluster(t, 4, 4, 1, testRecords(rng, testBounds(), 50), func(cfg *Config) {
		cfg.MaxInFlight, cfg.MaxQueue = 1, 1
		cfg.QueueWait, cfg.RequestTimeout = 30*time.Second, 30*time.Second
		cfg.Obs = obsv
	}, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cell" && blocked.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
			h.ServeHTTP(w, r)
		})
	})
	reg := obsv.Registry()
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failed assertion must not leave the holder blocked

	// get issues one /cell query and reports its status and error code.
	type answer struct {
		status int
		code   string
	}
	get := func() <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			resp, err := http.Get(tc.front.URL + "/cell?row=1&col=1")
			if err != nil {
				ch <- answer{code: err.Error()}
				return
			}
			defer resp.Body.Close()
			var eb struct {
				Code string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&eb)
			ch <- answer{resp.StatusCode, eb.Code}
		}()
		return ch
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	holder := get() // takes the only slot, blocked at its shard
	<-entered
	queued := get() // waits in the one queue place
	waitFor("the second request to queue", func() bool { return reg.Counter("cluster.queued").Value() == 1 })
	full := <-get() // queue full: shed at once
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- tc.coord.Shutdown(ctx)
	}()
	rejected := <-queued // the drain rejects the waiter, so admission is now shut
	late := <-get()
	unblock()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	answers := []answer{<-holder, rejected, full, late}

	var ok200, capacity503, draining503 int64
	for _, a := range answers {
		switch {
		case a.status == http.StatusOK:
			ok200++
		case a.status == http.StatusServiceUnavailable && a.code == "overloaded":
			capacity503++
		case a.status == http.StatusServiceUnavailable && a.code == "draining":
			draining503++
		default:
			t.Fatalf("unexpected answer %+v", a)
		}
	}
	if ok200 != 1 || capacity503 != 1 || draining503 != 2 {
		t.Fatalf("answers %+v: %d×200, %d overloaded, %d draining; want 1/1/2", answers, ok200, capacity503, draining503)
	}
	for name, want := range map[string]int64{
		"cluster.admitted":      ok200,
		"cluster.shed_capacity": capacity503,
		"cluster.shed_draining": draining503,
		"cluster.shed_timeout":  0,
		"cluster.shed":          capacity503 + draining503,
		"cluster.requests":      int64(len(answers)),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func shutdownCoordinator(t *testing.T, c *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Errorf("coordinator shutdown: %v", err)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
