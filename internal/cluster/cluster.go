// Package cluster shards the streaming repartitioner across N spatial shards
// and puts a stateless, defensively wired coordinator in front of them
// (DESIGN.md §3.20). The grid is split into contiguous row bands (Plan); each
// shard runs the existing internal/stream + internal/server stack over its
// band's sub-grid and sub-bounds, and the coordinator speaks the shards' own
// HTTP API: /cell and /group are routed point queries, /view and /stats are
// scatter-gathers whose per-shard legs each get a deadline, a PR-4-style
// circuit breaker, capped jittered retries, and optional p99-hedging.
//
// The correctness core is the stitcher: shard cell-groups are reassembled
// into the global partition keyed by global group identity (the parent
// rectangle's top-left corner), with every disagreement — generation mix,
// feature drift, missing or overlapping fragments — dropped explicitly
// rather than merged on a guess. When shards fail, the coordinator keeps
// serving what it can: HTTP 200 with Warning: 110, degraded=true, and the
// missing shards named in the body; cluster /readyz stays ready while at
// least one shard is, mirroring the degraded-serving contract of the
// single-node stack.
package cluster

import (
	"fmt"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/stream"
)

// NewShard constructs the streaming repartitioner for one band of the plan:
// the shard's grid is the band's rows × the global columns over the band's
// sub-bounds. Everything else about the shard — serving, checkpointing,
// fault tolerance — is the existing single-node stack, unchanged.
func NewShard(p Plan, shard int, attrs []grid.Attribute, opts stream.Options) (*stream.Repartitioner, error) {
	if shard < 0 || shard >= len(p.Bands) {
		return nil, fmt.Errorf("cluster: shard %d outside plan with %d bands", shard, len(p.Bands))
	}
	b := p.Bands[shard]
	return stream.New(b.Bounds, b.Rows(), p.Cols, attrs, opts)
}

// ViewFromStreams assembles the cluster view directly from in-process shard
// streams — the coordinator-free reference implementation the property tests
// compare the HTTP path against byte for byte. streams[i] must be the shard
// for band i of the plan.
//
//spatialvet:ignore deadexport (b) perfbench's serve stage checks the coordinator's /view against it
func ViewFromStreams(p Plan, streams []*stream.Repartitioner) (ViewBody, error) {
	if len(streams) != len(p.Bands) {
		return ViewBody{}, fmt.Errorf("cluster: %d streams for %d bands", len(streams), len(p.Bands))
	}
	views := make([]ShardView, 0, len(streams))
	for i, s := range streams {
		v, err := s.Current()
		if err != nil {
			return ViewBody{}, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		views = append(views, ShardView{
			Shard:      i,
			Generation: v.Generation,
			Degraded:   v.Degraded,
			IFL:        v.IFL,
			Fragments:  FragmentsOf(p.Bands[i], v),
		})
	}
	return AssembleView(p, views, nil, true), nil
}
