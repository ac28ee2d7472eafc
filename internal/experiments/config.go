// Package experiments implements the paper's evaluation section (§IV): one
// runner per figure and table, each returning printable rows, plus the
// shared protocol plumbing — dataset preparation, the four reduction methods
// at matched partition counts, the 80/20 split, model training with the
// Table I hyperparameters, and time/memory measurement.
package experiments

import (
	"fmt"
	"os"

	"spatialrepart/internal/datagen"
)

// GridSize names one grid granularity of §IV-B.
type GridSize struct {
	Name       string
	Rows, Cols int
}

// Config parameterizes every experiment runner.
type Config struct {
	Seed int64
	// Sizes are the initial cell counts swept by Figs. 5-6 (the paper's
	// ≈36k/78k/100k, scaled down by default — see Scale).
	Sizes []GridSize
	// ModelSize is the single grid used for model training experiments
	// (Figs. 7-10, Tables II-IV); the paper uses its largest grid there.
	ModelSize GridSize
	// Thresholds are the IFL thresholds swept everywhere (0.05/0.1/0.15).
	Thresholds []float64
	// TestFraction of instances held out (0.2 per §III-B).
	TestFraction float64
	// Classes for the classification experiments (5 bins per §IV-C2).
	Classes int
	// ClusterK is the cluster count for the spatial clustering application.
	ClusterK int
	// SVRMaxTrain subsamples SVR training sets larger than this (0 = no cap);
	// keeps the O(n²) kernel solver tractable at paper-scale grids.
	SVRMaxTrain int
	// Repeats averages the Table II/III error metrics over this many
	// different 80/20 splits (0 = 1). Training time/memory always come from
	// the first split.
	Repeats int
	// Workers bounds the goroutines each re-partitioning call may use
	// (0 = GOMAXPROCS, 1 = sequential); forwarded to core.Options.Workers.
	// Results are byte-identical across settings — this only trades wall
	// clock for cores.
	Workers int
	// Collector, when non-nil, receives the core.RunReport of every
	// re-partitioning an experiment runner performs (DESIGN.md §3.14). The
	// lab caches reductions, so each (dataset, θ) pair is recorded once.
	Collector *Collector
}

// DefaultConfig returns the laptop-scale configuration. Set the environment
// variable REPRO_SCALE=paper to run the paper's original grid sizes
// (≈36k/78k/100k cells — hours of compute), or REPRO_SCALE=quick for a
// fast smoke-test sweep.
func DefaultConfig() Config {
	cfg := Config{
		Seed: 42,
		Sizes: []GridSize{
			{Name: "36k-scaled", Rows: 30, Cols: 32},
			{Name: "78k-scaled", Rows: 44, Cols: 45},
			{Name: "100k-scaled", Rows: 50, Cols: 51},
		},
		ModelSize:    GridSize{Name: "model", Rows: 36, Cols: 36},
		Thresholds:   []float64{0.05, 0.1, 0.15},
		TestFraction: 0.2,
		Classes:      5,
		ClusterK:     8,
		SVRMaxTrain:  3000,
		Repeats:      3,
	}
	switch os.Getenv("REPRO_SCALE") {
	case "paper":
		cfg.Sizes = []GridSize{
			{Name: "36k", Rows: 191, Cols: 193},
			{Name: "78k", Rows: 279, Cols: 280},
			{Name: "100k", Rows: 315, Cols: 318},
		}
		cfg.ModelSize = GridSize{Name: "100k", Rows: 315, Cols: 318}
	case "quick":
		cfg.Sizes = []GridSize{
			{Name: "tiny", Rows: 16, Cols: 16},
			{Name: "small", Rows: 20, Cols: 20},
		}
		cfg.ModelSize = GridSize{Name: "tiny", Rows: 16, Cols: 16}
	}
	return cfg
}

// MultivariateDatasets builds the three multivariate datasets at the given
// size.
func (c Config) MultivariateDatasets(s GridSize) []*datagen.Dataset {
	return datagen.Multivariate(c.Seed, s.Rows, s.Cols)
}

// UnivariateDatasets builds the three univariate datasets at the given size.
func (c Config) UnivariateDatasets(s GridSize) []*datagen.Dataset {
	return datagen.Univariate(c.Seed+10, s.Rows, s.Cols)
}

// AllDatasets builds all six datasets at the given size.
func (c Config) AllDatasets(s GridSize) []*datagen.Dataset {
	return datagen.All(c.Seed, s.Rows, s.Cols)
}

func (c Config) validate() error {
	if len(c.Sizes) == 0 || len(c.Thresholds) == 0 {
		return fmt.Errorf("experiments: config needs at least one size and one threshold")
	}
	return nil
}
