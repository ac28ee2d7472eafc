package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/fault"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/server"
)

// Defaults for the zero Config fields.
const (
	DefaultShardTimeout     = 2 * time.Second
	DefaultRetryMax         = 2
	DefaultFailureThreshold = 3
	DefaultInitialBackoff   = 50 * time.Millisecond
	DefaultMaxBackoff       = 5 * time.Second
	DefaultHedgeMinSamples  = 8
)

// Config parameterizes a Coordinator. Plan and Backends are required and
// must agree: Backends[i] is the base URL of the shard serving band i.
type Config struct {
	// Plan is the cluster's sharding geometry.
	Plan Plan
	// Backends are the shard base URLs ("http://host:port"), one per band.
	Backends []string

	// Client performs the shard requests (default: a dedicated client on a
	// cloned default transport, so Shutdown's CloseIdleConnections never
	// touches unrelated traffic).
	Client *http.Client
	// ShardTimeout bounds one shard attempt (default 2s).
	ShardTimeout time.Duration
	// RetryMax is the number of ADDITIONAL attempts per shard fetch after
	// the first fails retryably (default 2; reads are idempotent GETs).
	RetryMax int
	// FailureThreshold consecutive failures open a backend's breaker
	// (default 3).
	FailureThreshold int
	// InitialBackoff/MaxBackoff bound the per-backend retry backoff
	// (defaults 50ms / 5s).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// JitterSeed seeds the deterministic jitter: backend i's backoff draws
	// from stream seed+i+1 and shed Retry-After hints from stream seed (0 =
	// a fixed default).
	JitterSeed int64
	// Hedge enables hedged reads: once a backend has HedgeMinSamples
	// recorded successes, a duplicate request launches after its observed
	// p99 latency and the first answer wins.
	Hedge bool
	// HedgeMinSamples gates hedging until the latency estimate is real
	// (default 8).
	HedgeMinSamples int

	// MaxInFlight/MaxQueue/QueueWait/RequestTimeout configure the request
	// envelope shared with the shard server (server.Front; defaults
	// 64/16/100ms/5s).
	MaxInFlight    int
	MaxQueue       int
	QueueWait      time.Duration
	RequestTimeout time.Duration
	// RetryAfter is the Retry-After hint attached to shed responses,
	// jittered per response into [RetryAfter/2, RetryAfter) (default 1s).
	RetryAfter time.Duration

	// Obs, when non-nil, receives the coordinator metrics (per-backend
	// breaker gauges, retry/hedge counters, RED series) and spans.
	Obs *obs.Observer
	// Fault, when non-nil, is consulted at "cluster.request" (after
	// admission) and "cluster.fetch" (before every shard attempt).
	Fault *fault.Injector
	// Clock substitutes the time source for deterministic chaos tests
	// (nil = real clock).
	Clock server.Clock
}

// Coordinator is the cluster's stateless front door: the scatter-gather
// endpoints mounted on the shard server's request envelope (server.Front,
// prefix "cluster"). Create with New, mount via Handler or run with Serve,
// stop with Shutdown. It holds no view state of its own: every request
// fetches every shard, and every response is derived from those live shard
// answers. The one thing it keeps is a memo of its last healthy stitched
// /view per groups value, keyed on the exact shard bodies it was built
// from, so identical shard answers skip the decode, stitch and encode. A
// restarted coordinator recovers nothing, so coordinators can be replicated
// freely.
type Coordinator struct {
	*server.Front
	cfg      Config
	plan     Plan
	backends []*backend
	client   *http.Client
	ownsClnt bool
	clock    server.Clock
	obs      *obs.Observer
	flt      *fault.Injector

	// viewMu guards views, the stitched /view memo per groups value
	// (index 1 = with groups). Memo slices are never mutated.
	viewMu sync.Mutex
	views  [2]stitchedView
}

// stitchedView is one memoized coordinator /view response: the encoded
// body, whether it was degraded, and the shard bodies it was stitched from.
type stitchedView struct {
	shardBodies [][]byte
	degraded    bool
	body        []byte
}

// matches reports whether every shard answered 200 with exactly the body
// the memo was stitched from.
func (m stitchedView) matches(results []fetchResult, errs []error) bool {
	if m.body == nil || len(m.shardBodies) != len(results) {
		return false
	}
	for i, res := range results {
		if errs[i] != nil || res.Status != http.StatusOK || !bytes.Equal(res.Body, m.shardBodies[i]) {
			return false
		}
	}
	return true
}

// New validates cfg, applies defaults, and returns a ready-to-mount
// Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Plan.Bands) == 0 {
		return nil, fmt.Errorf("cluster: Config.Plan is required (see NewPlan)")
	}
	if len(cfg.Backends) != len(cfg.Plan.Bands) {
		return nil, fmt.Errorf("cluster: %d backends for %d bands", len(cfg.Backends), len(cfg.Plan.Bands))
	}
	for i, b := range cfg.Backends {
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %d: invalid base URL %q", i, b)
		}
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = DefaultShardTimeout
	}
	if cfg.RetryMax < 0 {
		return nil, fmt.Errorf("cluster: negative RetryMax %d", cfg.RetryMax)
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = DefaultFailureThreshold
	}
	if cfg.InitialBackoff <= 0 {
		cfg.InitialBackoff = DefaultInitialBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.HedgeMinSamples <= 0 {
		cfg.HedgeMinSamples = DefaultHedgeMinSamples
	}
	// The front runs with rate limiting off, no access logger and the
	// default body cap: the coordinator exposes none of those settings.
	front := server.NewFront("cluster", server.Config{
		MaxInFlight:          cfg.MaxInFlight,
		MaxQueue:             cfg.MaxQueue,
		QueueWait:            cfg.QueueWait,
		RequestTimeout:       cfg.RequestTimeout,
		RetryAfter:           cfg.RetryAfter,
		RetryAfterJitterSeed: cfg.JitterSeed,
		Obs:                  cfg.Obs,
		Fault:                cfg.Fault,
		Clock:                cfg.Clock,
	})
	c := &Coordinator{
		Front: front,
		cfg:   cfg,
		plan:  cfg.Plan,
		clock: front.Clock(),
		obs:   cfg.Obs,
		flt:   cfg.Fault,
	}
	c.client = cfg.Client
	if c.client == nil {
		c.client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
		c.ownsClnt = true
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}
	for i, base := range cfg.Backends {
		c.backends = append(c.backends, &backend{
			index: i,
			base:  base,
			brk:   breaker.New(cfg.FailureThreshold, cfg.InitialBackoff, cfg.MaxBackoff, seed+int64(i)+1),
		})
	}
	c.HandleProbe("/healthz", c.handleHealthz)
	c.HandleProbe("/readyz", c.handleReadyz)
	c.HandleQuery("/view", c.handleView)
	c.HandleQuery("/stats", c.handleStats)
	c.HandleQuery("/cell", c.handleCell)
	c.HandleQuery("/group", c.handleGroup)
	return c, nil
}

// Shutdown drains the coordinator's front gracefully within ctx's deadline
// (see server.Front.Shutdown), then releases the owned client's idle
// backend connections.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	err := c.Front.Shutdown(ctx)
	if c.ownsClnt {
		c.client.CloseIdleConnections()
	}
	return err
}

// ---- probe endpoints -------------------------------------------------------

// HealthBody is the coordinator /healthz response.
type HealthBody struct {
	Status   string `json:"status"`
	Shards   int    `json:"shards"`
	Draining bool   `json:"draining,omitempty"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	return server.WriteJSON(w, HealthBody{Status: "ok", Shards: len(c.backends), Draining: c.Draining()})
}

// ShardReady is one shard's entry in the cluster readiness body.
type ShardReady struct {
	Shard      int    `json:"shard"`
	Ready      bool   `json:"ready"`
	Reason     string `json:"reason,omitempty"`
	Breaker    string `json:"breaker"` // the COORDINATOR's breaker for this backend
	Generation int    `json:"generation"`
}

// ReadyBody is the coordinator /readyz response. The cluster is ready while
// at least one shard is — partial serving is the contract, so a single dead
// shard degrades readiness rather than revoking it; only a fully dark
// cluster turns the load balancer away.
type ReadyBody struct {
	Ready    bool         `json:"ready"`
	Reason   string       `json:"reason,omitempty"`
	Degraded bool         `json:"degraded"`
	Shards   []ShardReady `json:"shards"`
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	type probeRes struct {
		idx  int
		sr   ShardReady
		okay bool
	}
	ch := make(chan probeRes, len(c.backends))
	for _, b := range c.backends {
		go func(b *backend) {
			sr := ShardReady{Shard: b.index}
			b.mu.Lock()
			sr.Breaker = b.brk.State().String()
			b.mu.Unlock()
			// Probes bypass the breaker and retry loop on purpose: they are
			// how the coordinator notices a shard came BACK, and they must
			// stay cheap and honest while the fetch path is refusing.
			res, err := c.roundTrip(r.Context(), b, "/readyz")
			if err != nil {
				sr.Reason = "unreachable: " + err.Error()
				ch <- probeRes{idx: b.index, sr: sr}
				return
			}
			var body server.ReadyBody
			if jerr := json.Unmarshal(res.Body, &body); jerr != nil {
				sr.Reason = "bad readiness payload"
				ch <- probeRes{idx: b.index, sr: sr}
				return
			}
			sr.Ready = body.Ready
			sr.Reason = body.Reason
			sr.Generation = body.Gen
			ch <- probeRes{idx: b.index, sr: sr, okay: body.Ready}
		}(b)
	}
	out := ReadyBody{Shards: make([]ShardReady, len(c.backends))}
	readyCount := 0
	for range c.backends {
		pr := <-ch
		out.Shards[pr.idx] = pr.sr
		if pr.okay {
			readyCount++
		}
	}
	switch {
	case c.Draining():
		out.Ready, out.Reason = false, "draining"
	case readyCount == 0:
		out.Ready, out.Reason = false, "no shard ready"
	default:
		out.Ready = true
		out.Degraded = readyCount < len(c.backends)
	}
	w.Header().Set("Content-Type", "application/json")
	if !out.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("cluster: encoding readiness: %w", err)
	}
	return nil
}

// ---- scatter-gather endpoints ----------------------------------------------

// shardGroupWire is the coordinator's decoding of one shard cell-group. The
// coordinate fields are the shard's wire form (server.GroupBody, local
// coordinates); the optional parent_* fields let a cluster-aware backend
// declare a border-spanning group's GLOBAL parent extent — absent, the group
// is its own parent (true for the stock shard stack, whose partitions are
// confined to their band).
type shardGroupWire struct {
	ID       int       `json:"id"`
	RowBegin int       `json:"row_begin"`
	RowEnd   int       `json:"row_end"`
	ColBegin int       `json:"col_begin"`
	ColEnd   int       `json:"col_end"`
	Cells    int       `json:"cells"`
	Null     bool      `json:"null"`
	Features []float64 `json:"features"`

	ParentRowBegin *int `json:"parent_row_begin"`
	ParentRowEnd   *int `json:"parent_row_end"`
	ParentColBegin *int `json:"parent_col_begin"`
	ParentColEnd   *int `json:"parent_col_end"`
}

// shardViewWire is the coordinator's decoding of a shard /view response.
type shardViewWire struct {
	Generation int              `json:"generation"`
	Degraded   bool             `json:"degraded"`
	Rows       int              `json:"rows"`
	Cols       int              `json:"cols"`
	IFL        float64          `json:"ifl"`
	CellGroups []shardGroupWire `json:"cell_groups"`
}

// shardViewOf decodes and translates one shard's /view body into the global
// frame.
func shardViewOf(b Band, body []byte) (ShardView, error) {
	var wire shardViewWire
	if err := json.Unmarshal(body, &wire); err != nil {
		return ShardView{}, fmt.Errorf("cluster: shard %d view: %w", b.Index, err)
	}
	sv := ShardView{
		Shard:      b.Index,
		Generation: wire.Generation,
		Degraded:   wire.Degraded,
		IFL:        wire.IFL,
		Fragments:  make([]Fragment, 0, len(wire.CellGroups)),
	}
	for _, g := range wire.CellGroups {
		f := Fragment{
			Shard:    b.Index,
			RowBegin: g.RowBegin + b.Row0, RowEnd: g.RowEnd + b.Row0,
			ColBegin: g.ColBegin, ColEnd: g.ColEnd,
			Null:       g.Null,
			Features:   copyFloats(g.Features),
			Generation: wire.Generation,
		}
		if g.ParentRowBegin != nil && g.ParentRowEnd != nil && g.ParentColBegin != nil && g.ParentColEnd != nil {
			f.ParentRowBegin, f.ParentRowEnd = *g.ParentRowBegin, *g.ParentRowEnd
			f.ParentColBegin, f.ParentColEnd = *g.ParentColBegin, *g.ParentColEnd
		} else {
			f.ParentRowBegin, f.ParentRowEnd = f.RowBegin, f.RowEnd
			f.ParentColBegin, f.ParentColEnd = f.ColBegin, f.ColEnd
		}
		sv.Fragments = append(sv.Fragments, f)
	}
	return sv, nil
}

// scatter fetches pq from every backend concurrently and returns the raw
// per-shard results (nil error slot = success) in backend order.
func (c *Coordinator) scatter(ctx context.Context, pq string) ([]fetchResult, []error) {
	type slot struct {
		idx int
		res fetchResult
		err error
	}
	ch := make(chan slot, len(c.backends))
	for _, b := range c.backends {
		go func(b *backend) {
			res, err := c.fetch(ctx, b, pq)
			ch <- slot{idx: b.index, res: res, err: err}
		}(b)
	}
	results := make([]fetchResult, len(c.backends))
	errs := make([]error, len(c.backends))
	for range c.backends {
		s := <-ch
		results[s.idx], errs[s.idx] = s.res, s.err
	}
	return results, errs
}

// degradedWarning stamps the stale-response Warning header (the same 110
// convention the shards use for degraded last-good views).
func degradedWarning(w http.ResponseWriter) {
	w.Header().Set("Warning", `110 - "partial or stale cluster response"`)
}

// handleView scatter-gathers every shard's /view and serves the stitched
// global partition: GET /view (?groups=false omits the group list). Shards
// that fail their defended fetch are reported in missing_shards and the
// response degrades to 200 + Warning; only a fully dark cluster turns into
// a 503. When every shard answers with the same bytes as for the memoized
// response, that response is served again without re-stitching; only
// responses with every shard present are memoized.
func (c *Coordinator) handleView(w http.ResponseWriter, r *http.Request) error {
	pq := "/view"
	includeGroups := r.URL.Query().Get("groups") != "false"
	results, errs := c.scatter(r.Context(), pq)

	slot := &c.views[0]
	if includeGroups {
		slot = &c.views[1]
	}
	c.viewMu.Lock()
	memo := *slot
	c.viewMu.Unlock()
	if memo.matches(results, errs) {
		return c.writeView(w, r, memo.body, memo.degraded, 0)
	}

	var views []ShardView
	var missing []int
	var firstErr error
	for i := range results {
		if errs[i] != nil {
			missing = append(missing, i)
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		if results[i].Status != http.StatusOK {
			missing = append(missing, i)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %d returned status %d", i, results[i].Status)
			}
			continue
		}
		sv, err := shardViewOf(c.plan.Bands[i], results[i].Body)
		if err != nil {
			missing = append(missing, i)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		views = append(views, sv)
	}
	if len(views) == 0 {
		return server.ErrNotReady.WithDetail("no shard reachable: %v", firstErr)
	}
	body := AssembleView(c.plan, views, missing, includeGroups)
	encoded, err := server.EncodeJSON(body)
	if err != nil {
		return err
	}
	if len(missing) == 0 {
		shardBodies := make([][]byte, len(results))
		for i := range results {
			shardBodies[i] = results[i].Body
		}
		c.viewMu.Lock()
		*slot = stitchedView{shardBodies: shardBodies, degraded: body.Degraded, body: encoded}
		c.viewMu.Unlock()
	}
	return c.writeView(w, r, encoded, body.Degraded, len(missing))
}

// writeView writes an encoded stitched view, flagging a degraded one with
// the Warning header and publishing the missing-shard gauge.
func (c *Coordinator) writeView(w http.ResponseWriter, r *http.Request, body []byte, degraded bool, missing int) error {
	if degraded {
		degradedWarning(w)
	}
	c.obs.SetGauge("cluster.missing_shards", float64(missing))
	if r.Context().Err() != nil {
		return server.ErrTimeout.WithDetail("deadline expired before the stitched view was written")
	}
	return server.WriteBody(w, body)
}

// ShardStats is one shard's entry in the cluster /stats response: the
// coordinator's client-side counters plus the shard's own report verbatim.
type ShardStats struct {
	Shard    int             `json:"shard"`
	Breaker  string          `json:"breaker"`
	Opens    int             `json:"breaker_opens"`
	Failures int             `json:"fetch_failures"`
	Refused  int             `json:"fetch_refused"`
	Stats    json.RawMessage `json:"stats,omitempty"`
}

// StatsBody is the coordinator /stats response.
type StatsBody struct {
	MissingShards []int        `json:"missing_shards,omitempty"`
	Shards        []ShardStats `json:"shards"`
}

// handleStats scatter-gathers shard /stats reports: GET /stats. Per-shard
// failures degrade to missing entries, same contract as /view.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) error {
	results, errs := c.scatter(r.Context(), "/stats")
	out := StatsBody{Shards: make([]ShardStats, len(c.backends))}
	for i, b := range c.backends {
		b.mu.Lock()
		out.Shards[i] = ShardStats{
			Shard:    i,
			Breaker:  b.brk.State().String(),
			Opens:    b.brk.Opens(),
			Failures: b.fails,
			Refused:  b.refused,
		}
		b.mu.Unlock()
		if errs[i] != nil || results[i].Status != http.StatusOK {
			out.MissingShards = append(out.MissingShards, i)
			continue
		}
		out.Shards[i].Stats = json.RawMessage(results[i].Body)
	}
	if len(out.MissingShards) == len(c.backends) {
		return server.ErrNotReady.WithDetail("no shard reachable")
	}
	if len(out.MissingShards) > 0 {
		degradedWarning(w)
	}
	sort.Ints(out.MissingShards)
	return server.WriteJSON(w, out)
}

// routeCell parses and validates the global row/col query parameters and
// resolves the owning backend.
func (c *Coordinator) routeCell(r *http.Request) (b *backend, row, col int, err error) {
	q := r.URL.Query()
	row, aerr := strconv.Atoi(q.Get("row"))
	if aerr != nil {
		return nil, 0, 0, server.ErrBadRequest.WithDetail("row %q: %v", q.Get("row"), aerr)
	}
	col, aerr = strconv.Atoi(q.Get("col"))
	if aerr != nil {
		return nil, 0, 0, server.ErrBadRequest.WithDetail("col %q: %v", q.Get("col"), aerr)
	}
	if row < 0 || row >= c.plan.Rows || col < 0 || col >= c.plan.Cols {
		return nil, 0, 0, server.ErrNotFound.WithDetail("cell (%d,%d) outside the %dx%d grid", row, col, c.plan.Rows, c.plan.Cols)
	}
	shard := c.plan.ShardFor(row)
	return c.backends[shard], row, col, nil
}

// CellBody is the coordinator /cell response: the shard-resolved group
// translated into global coordinates, plus the owning shard.
type CellBody struct {
	Row   int              `json:"row"`
	Col   int              `json:"col"`
	Shard int              `json:"shard"`
	Group server.GroupBody `json:"group"`
}

// handleCell routes a point query to the owning shard:
// GET /cell?row=R&col=C (global coordinates). The shard is asked for its
// LOCAL cell; its answer is translated back into the global frame. The
// group ID is the shard's local ID — global IDs exist only on stitched
// views, and the body names the shard so (shard, id) is unambiguous.
func (c *Coordinator) handleCell(w http.ResponseWriter, r *http.Request) error {
	b, row, col, err := c.routeCell(r)
	if err != nil {
		return err
	}
	band := c.plan.Bands[b.index]
	pq := fmt.Sprintf("/cell?row=%d&col=%d", row-band.Row0, col)
	res, ferr := c.fetch(r.Context(), b, pq)
	if ferr != nil {
		return server.ErrNotReady.WithDetail("shard %d unavailable: %v", b.index, ferr)
	}
	if res.Status != http.StatusOK {
		return passthrough(w, res)
	}
	var cb struct {
		Row   int              `json:"row"`
		Col   int              `json:"col"`
		Group server.GroupBody `json:"group"`
	}
	if jerr := json.Unmarshal(res.Body, &cb); jerr != nil {
		return server.ErrInternal.WithDetail("shard %d cell payload: %v", b.index, jerr)
	}
	cb.Group.RowBegin += band.Row0
	cb.Group.RowEnd += band.Row0
	return server.WriteJSON(w, CellBody{Row: row, Col: col, Shard: b.index, Group: cb.Group})
}

// GroupQueryBody is the coordinator /group response.
type GroupQueryBody struct {
	Shard int              `json:"shard"`
	Group server.GroupBody `json:"group"`
}

// handleGroup resolves the cell-group containing a global cell:
// GET /group?row=R&col=C. Groups are addressed by coordinate, not by ID —
// a global group ID is a property of one stitched view generation, not a
// stable name the cluster could route on.
func (c *Coordinator) handleGroup(w http.ResponseWriter, r *http.Request) error {
	b, row, col, err := c.routeCell(r)
	if err != nil {
		return err
	}
	band := c.plan.Bands[b.index]
	pq := fmt.Sprintf("/cell?row=%d&col=%d", row-band.Row0, col)
	res, ferr := c.fetch(r.Context(), b, pq)
	if ferr != nil {
		return server.ErrNotReady.WithDetail("shard %d unavailable: %v", b.index, ferr)
	}
	if res.Status != http.StatusOK {
		return passthrough(w, res)
	}
	var cb struct {
		Group server.GroupBody `json:"group"`
	}
	if jerr := json.Unmarshal(res.Body, &cb); jerr != nil {
		return server.ErrInternal.WithDetail("shard %d cell payload: %v", b.index, jerr)
	}
	cb.Group.RowBegin += band.Row0
	cb.Group.RowEnd += band.Row0
	return server.WriteJSON(w, GroupQueryBody{Shard: b.index, Group: cb.Group})
}

// passthrough relays a shard's non-200 answer (status and JSON body) to the
// client unchanged, so the shard's error taxonomy survives the hop.
func passthrough(w http.ResponseWriter, res fetchResult) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.Status)
	_, err := w.Write(res.Body)
	if err != nil {
		return fmt.Errorf("cluster: relaying shard response: %w", err)
	}
	return nil
}
