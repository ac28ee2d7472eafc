package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spatialrepart"
	"spatialrepart/internal/obs"
)

// Stage shares of a pass's measured seconds, sized on a 2-vCPU machine at
// --seconds 40 so each reported percentile keeps ten samples beyond it: the
// batch share fits about eight 1.2 s multi calls, the serve share about 190
// /view answers (p90) and 9000 /cell answers (p99), the ingest share about
// 300 live reads (p90).
const (
	batchShare  = 0.25
	serveShare  = 0.4
	ingestShare = 0.35
	// rounds is how many times the three stages take turns in a pass.
	rounds = 8
	// setups is how many times an untraced pass sets up; setup_s is their
	// median.
	setups = 5
)

type passConfig struct {
	w        workload
	seed     int64
	seconds  float64
	dir      string // scratch for WAL directories
	traceDir string // where a traced pass writes its Perfetto traces
	// refs are the workers=1 digests of the batch grids, computed once per
	// run.
	refs [][32]byte
}

// stageObs holds one observer per stage for a traced pass (all nil for an
// untraced one), so each stage's layers report from a private registry.
type stageObs struct {
	batch, serve, ingest *obs.Observer
}

// passResult is everything one pass measured.
type passResult struct {
	attempted, failed int
	checkErrs         []string

	setup  []float64 // seconds per set-up
	repart samples
	grids  map[int]gridCounts // per batch grid, traced pass only

	cell, view samples

	cells []cellReply // every serve-stage answer, for checkServe
	views []viewReply

	acks     samples
	acked    int
	next     int       // index of the next pool record to ingest
	rps      []float64 // acked records per second, per ingest slice
	fresh    samples
	liveCell samples

	layers map[string]metric // traced pass only
}

// op records one operation's outcome.
func (r *passResult) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failed operation and keeps its first few reasons.
func (r *passResult) fail(err error) {
	r.failed++
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

// check records a whole-run check that is not an operation of its own.
func (r *passResult) check(err error) {
	if err != nil && len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

// endToEnd is the pass's end-to-end metric set: the numbers that repeat
// within a tenth from run to run on a shared 2-vCPU machine.
func (r *passResult) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":          {median(r.setup), "s"},
		"repart_s":         {r.repart.quantile(0.5).Seconds(), "s"},
		"cell_p50_ms":      {ms(r.cell.quantile(0.5)), "ms"},
		"cell_p99_ms":      {ms(r.cell.quantile(0.99)), "ms"},
		"view_p50_ms":      {ms(r.view.quantile(0.5)), "ms"},
		"view_p90_ms":      {ms(r.view.quantile(0.9)), "ms"},
		"ack_p50_us":       {us(r.acks.quantile(0.5)), "us"},
		"fresh_p50_ms":     {ms(r.fresh.quantile(0.5)), "ms"},
		"live_cell_p50_ms": {ms(r.liveCell.quantile(0.5)), "ms"},
		"live_cell_p90_ms": {ms(r.liveCell.quantile(0.9)), "ms"},
	}
}

// unsteady are the client-visible numbers that follow the disk's fsync tail
// and so swing by more than a tenth between runs; they are reported with the
// per-layer metrics instead of being gated.
func (r *passResult) unsteady() map[string]metric {
	return map[string]metric{
		"ingest_rps":   {median(r.rps), "1/s"},
		"ack_p99_us":   {us(r.acks.quantile(0.99)), "us"},
		"fresh_p99_ms": {ms(r.fresh.quantile(0.99)), "ms"},
	}
}

// client is every client-visible metric, gated or not.
func (r *passResult) client() map[string]metric {
	m := r.endToEnd()
	for k, v := range r.unsteady() {
		m[k] = v
	}
	return m
}

// ok reports whether every operation and check of the pass passed.
func (r *passResult) ok() bool { return r.failed == 0 && len(r.checkErrs) == 0 }

// print writes the pass's metrics, sample counts and check failures.
func (r *passResult) print(label string) {
	printMetrics(label, r.client())
	fmt.Printf("%s samples setups=%d repart=%d cell=%d(>p99 %d) view=%d(>p90 %d) acks=%d(>p99 %d) fresh=%d(>p99 %d) live_cell=%d(>p90 %d)\n",
		label, len(r.setup), len(r.repart), len(r.cell), r.cell.beyond(0.99), len(r.view), r.view.beyond(0.9),
		len(r.acks), r.acks.beyond(0.99), len(r.fresh), r.fresh.beyond(0.99), len(r.liveCell), r.liveCell.beyond(0.9))
	if r.layers != nil {
		printMetrics(label, r.layers)
	}
	if len(r.checkErrs) > 0 {
		fmt.Printf("%s CHECK FAILURES: %s\n", label, joinErrs(r.checkErrs))
	}
}

// runPass sets up, runs the three stages and checks their outputs.
func runPass(cfg passConfig, traced bool) (*passResult, error) {
	res := &passResult{grids: map[int]gridCounts{}}
	n := setups
	var so stageObs
	if traced {
		n = 1
		so = stageObs{batch: obs.New(), serve: obs.New(), ingest: obs.New()}
	}
	var in *inputs
	var serveSt, ingestSt *stack
	for i := 0; i < n; i++ {
		if serveSt != nil {
			serveSt.close()
			ingestSt.close()
		}
		walDir := filepath.Join(cfg.dir, fmt.Sprintf("wal-%t-%d", traced, i))
		start := time.Now()
		var err error
		if in, err = genInputs(cfg.w, cfg.seed); err != nil {
			return nil, err
		}
		if serveSt, err = startServeStack(in, so.serve); err != nil {
			return nil, fmt.Errorf("serve stack: %w", err)
		}
		if ingestSt, err = startIngestStack(serveSt, in, so.ingest, walDir); err != nil {
			serveSt.close()
			return nil, fmt.Errorf("ingest stack: %w", err)
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	defer serveSt.close()
	defer ingestSt.close()

	// The stages take turns in short rounds, so a burst of contention on
	// the machine lands on every stage's samples alike instead of on one
	// stage's whole window.
	slice := func(share float64) time.Duration {
		return time.Duration(share * cfg.seconds / rounds * float64(time.Second))
	}
	serveMark, ingestMark := snapshot(so.serve), snapshot(so.ingest)
	// Each slice starts from a collected heap (as testing.B does before a
	// run), so one stage's garbage is not collected on another's clock.
	for r := 0; r < rounds; r++ {
		runtime.GC()
		batchStage(cfg, in, so.batch, slice(batchShare), res)
		runtime.GC()
		serveStage(cfg, r, serveSt, so.serve, slice(serveShare), res)
		runtime.GC()
		ingestStage(cfg, r, ingestSt, in, so.ingest, slice(ingestShare), res)
	}
	serveEnd, ingestEnd := snapshot(so.serve), snapshot(so.ingest)

	checkServe(serveSt, res)
	checkIngest(ingestSt, in, res)
	if traced {
		res.layers = layerMetrics(so, res, serveEnd.minus(serveMark), ingestEnd.minus(ingestMark), ingestSt)
		if err := writeTraces(cfg, so); err != nil {
			res.check(err)
		}
		res.check(checkChain(so.serve))
	}
	return res, nil
}

// batchStage calls Repartition in a closed loop for d (at least once),
// taking the batch grids in turn and checking every output against its
// workers=1 reference.
func batchStage(cfg passConfig, in *inputs, o *obs.Observer, d time.Duration, res *passResult) {
	deadline := time.Now().Add(d)
	for calls := 0; calls == 0 || time.Now().Before(deadline); calls++ {
		j := len(res.repart) % len(in.batch)
		before := countsOf(o, nil, gridCounts{})
		ctx, sp := o.StartSpanCtx(context.Background(), "bench.repartition")
		start := time.Now()
		rp, err := spatialrepart.Repartition(in.batch[j], spatialrepart.Options{Threshold: theta, Schedule: spatialrepart.ScheduleGeometric, Obs: o, Ctx: ctx})
		elapsed := time.Since(start)
		sp.End()
		res.repart = append(res.repart, elapsed)
		if err == nil {
			err = verifyBatch(rp, cfg.refs[j])
		}
		res.op(err)
		if err == nil && o != nil {
			res.grids[j] = countsOf(o, rp, before)
		}
	}
}

// gridCounts are the deterministic counts of one Repartition call.
type gridCounts struct {
	evaluations, rungEvals, groups, singleton float64
}

// countsOf reads o's evaluation counters less those in before, and the
// group count and singleton-cell share of rp (when given).
func countsOf(o *obs.Observer, rp *spatialrepart.Repartitioned, before gridCounts) gridCounts {
	r := o.Registry()
	if r == nil {
		return gridCounts{}
	}
	c := gridCounts{
		evaluations: float64(r.Counter("rung.evaluated").Value()) - before.evaluations,
		rungEvals:   float64(r.Histogram("span.rung.eval", nil).Count()) - before.rungEvals,
	}
	if rp != nil {
		c.groups = float64(rp.NumGroups())
		cells := 0
		for _, g := range rp.Partition.Groups {
			if g.Size() == 1 {
				cells++
			}
		}
		c.singleton = float64(cells) / float64(rp.Partition.Rows*rp.Partition.Cols)
	}
	return c
}

// verifyBatch checks one batch output against the reference digest and θ.
func verifyBatch(rp *spatialrepart.Repartitioned, ref [32]byte) error {
	if !(rp.IFL <= theta) {
		return fmt.Errorf("batch: IFL %v exceeds θ=%v", rp.IFL, theta)
	}
	if digest(rp) != ref {
		return fmt.Errorf("batch: partition/feature digest differs from the workers=1 reference")
	}
	return nil
}

// references computes the workers=1 digests the batch stage is checked
// against.
func references(w workload, seed int64) ([][32]byte, error) {
	gs, err := batchGridsOf(w, seed)
	if err != nil {
		return nil, err
	}
	refs := make([][32]byte, len(gs))
	for j, g := range gs {
		rp, err := spatialrepart.Repartition(g, spatialrepart.Options{Threshold: theta, Schedule: spatialrepart.ScheduleGeometric, Workers: 1})
		if err != nil {
			return nil, err
		}
		if !(rp.IFL <= theta) {
			return nil, fmt.Errorf("reference IFL %v exceeds θ=%v", rp.IFL, theta)
		}
		refs[j] = digest(rp)
	}
	return refs, nil
}

// digest hashes the partition rectangles, feature bits and IFL bits.
func digest(rp *spatialrepart.Repartitioned) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(rp.IFL))
	for gi, g := range rp.Partition.Groups {
		put(uint64(g.RBeg))
		put(uint64(g.REnd))
		put(uint64(g.CBeg))
		put(uint64(g.CEnd))
		if g.Null {
			put(1)
		} else {
			put(0)
		}
		for _, f := range rp.Features[gi] {
			put(math.Float64bits(f))
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// writeTraces writes each stage's flight recorder as Perfetto-loadable
// Chrome trace-event JSON.
func writeTraces(cfg passConfig, so stageObs) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	for name, o := range map[string]*obs.Observer{"batch": so.batch, "serve": so.serve, "ingest": so.ingest} {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d-%s.json", cfg.w.name, cfg.seed, name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := o.Flight().WriteTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", path, werr)
		}
		fmt.Printf("trace %s\n", path)
	}
	return nil
}
