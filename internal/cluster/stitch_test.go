package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"spatialrepart/internal/grid"
)

func testBounds() grid.Bounds {
	return grid.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}
}

func TestNewPlanGeometry(t *testing.T) {
	p, err := NewPlan(10, 4, testBounds(), 3)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []int{4, 3, 3} // 10 rows over 3 bands: first gets the extra
	row := 0
	for i, b := range p.Bands {
		if b.Index != i || b.Row0 != row || b.Rows() != wantRows[i] {
			t.Fatalf("band %d = %+v, want Row0=%d rows=%d", i, b, row, wantRows[i])
		}
		row = b.Row1
	}
	if row != 10 {
		t.Fatalf("bands cover %d rows, want 10", row)
	}
	if p.Bands[0].Bounds.MinLat != 0 || p.Bands[2].Bounds.MaxLat != 1 {
		t.Fatalf("outer band bounds not exact: %+v / %+v", p.Bands[0].Bounds, p.Bands[2].Bounds)
	}
	for i := 1; i < len(p.Bands); i++ {
		if p.Bands[i].Bounds.MinLat != p.Bands[i-1].Bounds.MaxLat {
			t.Fatalf("band %d lat cut %v != band %d top %v",
				i, p.Bands[i].Bounds.MinLat, i-1, p.Bands[i-1].Bounds.MaxLat)
		}
	}

	for _, bad := range []struct{ rows, cols, shards int }{
		{0, 4, 1}, {10, 0, 1}, {10, 4, 0}, {10, 4, 11},
	} {
		if _, err := NewPlan(bad.rows, bad.cols, testBounds(), bad.shards); err == nil {
			t.Fatalf("NewPlan(%+v) accepted", bad)
		}
	}
}

func TestShardForCoversGrid(t *testing.T) {
	p, err := NewPlan(17, 3, testBounds(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.Rows; r++ {
		s := p.ShardFor(r)
		if s < 0 || r < p.Bands[s].Row0 || r >= p.Bands[s].Row1 {
			t.Fatalf("row %d routed to shard %d owning [%d,%d)", r, s, p.Bands[s].Row0, p.Bands[s].Row1)
		}
	}
	if p.ShardFor(-1) != -1 || p.ShardFor(17) != -1 {
		t.Fatal("out-of-grid rows routed to a shard")
	}
}

// TestRouteAgreesWithGlobalCell is the ingest-consistency property: for any
// in-bounds record, the shard-local cell of the routed record equals the
// global cell minus the band offset — including records sitting exactly on
// band-edge latitudes.
func TestRouteAgreesWithGlobalCell(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shards := range []int{1, 2, 4} {
		p, err := NewPlan(13, 5, grid.Bounds{MinLat: -3, MaxLat: 9, MinLon: 2, MaxLon: 4}, shards)
		if err != nil {
			t.Fatal(err)
		}
		check := func(lat, lon float64) {
			rec := grid.Record{Lat: lat, Lon: lon, Values: []float64{1}}
			gr, gc, ok := p.Bounds.CellOf(lat, lon, p.Rows, p.Cols)
			shard, local, rok := p.Route(rec)
			if ok != rok {
				t.Fatalf("Route ok=%t but CellOf ok=%t for (%v,%v)", rok, ok, lat, lon)
			}
			if !ok {
				return
			}
			if want := p.ShardFor(gr); shard != want {
				t.Fatalf("record (%v,%v) routed to shard %d, want %d", lat, lon, shard, want)
			}
			b := p.Bands[shard]
			lr, lc, lok := b.Bounds.CellOf(local.Lat, local.Lon, b.Rows(), p.Cols)
			if !lok || lr != gr-b.Row0 || lc != gc {
				t.Fatalf("record (%v,%v): global cell (%d,%d), local cell (%d,%d,ok=%t), band Row0=%d",
					lat, lon, gr, gc, lr, lc, lok, b.Row0)
			}
		}
		for i := 0; i < 2000; i++ {
			check(-3+12*rng.Float64(), 2+2*rng.Float64())
		}
		// Exactly on every band-edge latitude, plus the global edges.
		for _, b := range p.Bands {
			check(b.Bounds.MinLat, 3)
			check(b.Bounds.MaxLat, 3)
		}
		check(-3, 2)
		check(9, 4) // max corner: CellOf clamps onto the last cell
	}
}

// randomGroups builds a valid random row-partitioned set of stitched groups:
// the grid's rows are cut into horizontal slabs, each slab's columns into
// rectangles. Rectangles spanning several bands are exactly the interesting
// case for SplitGroups/Stitch.
func randomGroups(rng *rand.Rand, rows, cols int) []StitchedGroup {
	var groups []StitchedGroup
	r := 0
	for r < rows {
		h := 1 + rng.Intn(rows-r)
		c := 0
		for c < cols {
			w := 1 + rng.Intn(cols-c)
			g := StitchedGroup{
				RowBegin: r, RowEnd: r + h - 1,
				ColBegin: c, ColEnd: c + w - 1,
				Generation: 1 + rng.Intn(3),
			}
			if rng.Intn(5) == 0 {
				g.Null = true
			} else {
				g.Features = []float64{rng.Float64(), rng.NormFloat64()}
			}
			groups = append(groups, g)
			c += w
		}
		r += h
	}
	return groups
}

// TestSplitStitchRoundTrip is the stitcher's core property:
// Stitch(SplitGroups(plan, groups)) == groups for arbitrary groups and band
// layouts, regardless of fragment arrival order.
func TestSplitStitchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		rows := 2 + rng.Intn(14)
		cols := 1 + rng.Intn(8)
		shards := 1 + rng.Intn(min(4, rows))
		p, err := NewPlan(rows, cols, testBounds(), shards)
		if err != nil {
			t.Fatal(err)
		}
		groups := randomGroups(rng, rows, cols)
		frags := SplitGroups(p, groups)
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })

		res := Stitch(rows, cols, frags)
		if len(res.Dropped) != 0 {
			t.Fatalf("iter %d: round trip dropped %d groups: %+v", iter, len(res.Dropped), res.Dropped)
		}
		if len(res.Groups) != len(groups) {
			t.Fatalf("iter %d: %d stitched groups, want %d", iter, len(res.Groups), len(groups))
		}
		// The stitched output is sorted by (RowBegin, ColBegin); so is the
		// generator's emission order.
		for i := range groups {
			got, want := res.Groups[i], groups[i]
			got.Shards = nil // round-trip identity is about the group content
			want.Shards = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: group %d = %+v, want %+v", iter, i, got, want)
			}
		}
	}
}

func TestStitchDropsGenerationMix(t *testing.T) {
	p, err := NewPlan(4, 2, testBounds(), 2)
	if err != nil {
		t.Fatal(err)
	}
	groups := []StitchedGroup{{
		RowBegin: 0, RowEnd: 3, ColBegin: 0, ColEnd: 1,
		Features: []float64{1.5}, Generation: 1,
	}}
	frags := SplitGroups(p, groups)
	frags[1].Generation = 2 // shard 1 serves a newer generation of the same group

	res := Stitch(4, 2, frags)
	if len(res.Groups) != 0 {
		t.Fatalf("generation-mixed group was stitched: %+v", res.Groups)
	}
	if len(res.Dropped) != 1 || res.Dropped[0].Reason != "generation mix across fragments" {
		t.Fatalf("dropped = %+v, want one generation-mix drop", res.Dropped)
	}
	if !reflect.DeepEqual(res.Dropped[0].Shards, []int{0, 1}) {
		t.Fatalf("dropped shards = %v, want [0 1]", res.Dropped[0].Shards)
	}
}

func TestStitchDropsIncompleteAndMalformed(t *testing.T) {
	p, err := NewPlan(6, 2, testBounds(), 3)
	if err != nil {
		t.Fatal(err)
	}
	whole := []StitchedGroup{{RowBegin: 0, RowEnd: 5, ColBegin: 0, ColEnd: 1, Features: []float64{2}, Generation: 1}}

	cases := []struct {
		name    string
		mutate  func([]Fragment) []Fragment
		reasons []string
	}{
		{"missing middle fragment", func(f []Fragment) []Fragment {
			return []Fragment{f[0], f[2]}
		}, []string{"missing fragment (row gap)"}},
		{"missing tail fragment", func(f []Fragment) []Fragment {
			return f[:2]
		}, []string{"missing fragment (parent tail)"}},
		{"overlapping fragments", func(f []Fragment) []Fragment {
			f[1].RowBegin = f[0].RowEnd // one-row overlap
			return f
		}, []string{"overlapping fragments"}},
		{"feature mismatch", func(f []Fragment) []Fragment {
			f[2].Features = []float64{2.0000001}
			return f
		}, []string{"feature mismatch across fragments"}},
		{"null mismatch", func(f []Fragment) []Fragment {
			f[0].Null = true
			return f
		}, []string{"null-flag mismatch across fragments"}},
		{"parent extent mismatch", func(f []Fragment) []Fragment {
			f[1].ParentRowEnd = 4
			return f
		}, []string{"parent-extent mismatch across fragments"}},
		{"narrow fragment", func(f []Fragment) []Fragment {
			f[1].ColEnd = 0
			return f
		}, []string{"fragment does not span the parent's columns"}},
		{"parent outside grid", func(f []Fragment) []Fragment {
			for i := range f {
				f[i].ParentRowEnd = 6
			}
			return f
		}, []string{"parent extent outside the 6x2 grid"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frags := tc.mutate(SplitGroups(p, whole))
			res := Stitch(6, 2, frags)
			if len(res.Groups) != 0 {
				t.Fatalf("malformed group was stitched: %+v", res.Groups)
			}
			if len(res.Dropped) != 1 || res.Dropped[0].Reason != tc.reasons[0] {
				t.Fatalf("dropped = %+v, want reason %q", res.Dropped, tc.reasons[0])
			}
		})
	}
}
