package sccluster

import (
	"testing"

	"spatialrepart/internal/datagen"
)

func BenchmarkClusterGrid(b *testing.B) {
	d := datagen.EarningsMulti(1, 32, 32)
	// Build the instance view once.
	red, err := ReduceGrid(d.Grid, d.Grid.ValidCount()) // trivial reduction for setup
	if err != nil {
		b.Fatal(err)
	}
	_ = red
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceGrid(d.Grid, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterWeighted(b *testing.B) {
	d := datagen.TaxiTripsUni(2, 32, 32)
	red, err := ReduceGrid(d.Grid, 400)
	if err != nil {
		b.Fatal(err)
	}
	// Cluster the reduced groups into 8 weighted clusters.
	feats := make([][]float64, 0, len(red.Groups))
	sizes := make([]float64, 0, len(red.Groups))
	for gi, members := range red.Groups {
		if red.Features[gi] == nil {
			continue
		}
		feats = append(feats, red.Features[gi])
		sizes = append(sizes, float64(len(members)))
	}
	adj := red.Adjacency(d.Grid.Rows, d.Grid.Cols)
	// Compact adjacency to the non-null groups (they are a prefix here only
	// if no null groups exist; rebuild defensively).
	idx := make([]int, len(red.Groups))
	n := 0
	for gi := range red.Groups {
		if red.Features[gi] != nil {
			idx[gi] = n
			n++
		} else {
			idx[gi] = -1
		}
	}
	neighbors := make([][]int, n)
	for gi, list := range adj {
		if idx[gi] < 0 {
			continue
		}
		for _, nb := range list {
			if idx[nb] >= 0 {
				neighbors[idx[gi]] = append(neighbors[idx[gi]], idx[nb])
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterWeighted(feats, neighbors, sizes, 8); err != nil {
			b.Fatal(err)
		}
	}
}
