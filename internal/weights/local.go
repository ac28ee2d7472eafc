package weights

import (
	"fmt"
	"math"
)

// LocalMoransI computes the local Moran statistic (LISA, Anselin 1995) for
// every instance: Iᵢ = zᵢ · Σⱼ wᵢⱼ zⱼ / (Σ z²/n), with row-standardized
// binary weights. Positive values mark instances inside high-high or low-low
// clusters; negative values mark spatial outliers. The paper's premise —
// spatial ML exploits local autocorrelation structure — is exactly what this
// statistic maps.
func (w *W) LocalMoransI(x []float64) ([]float64, error) {
	n := w.N()
	if len(x) != n {
		return nil, fmt.Errorf("weights: LocalMoransI input length %d, want %d", len(x), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("weights: empty input")
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var m2 float64
	for _, v := range x {
		d := v - mean
		m2 += d * d
	}
	m2 /= float64(n)
	if m2 == 0 {
		return nil, fmt.Errorf("weights: constant attribute")
	}
	out := make([]float64, n)
	for i, list := range w.Neighbors {
		if len(list) == 0 {
			continue
		}
		var lag float64
		for _, j := range list {
			lag += x[j] - mean
		}
		lag /= float64(len(list))
		out[i] = (x[i] - mean) * lag / m2
	}
	return out, nil
}

// GetisOrdGStar computes the Gi* hot-spot statistic (Getis & Ord 1992, the
// star variant that includes the focal instance) as a z-score for every
// instance: strongly positive values are hot spots, strongly negative ones
// cold spots.
func (w *W) GetisOrdGStar(x []float64) ([]float64, error) {
	n := w.N()
	if len(x) != n {
		return nil, fmt.Errorf("weights: GetisOrdGStar input length %d, want %d", len(x), n)
	}
	if n < 2 {
		return nil, fmt.Errorf("weights: need at least 2 instances")
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var sq float64
	for _, v := range x {
		sq += v * v
	}
	s := math.Sqrt(sq/float64(n) - mean*mean)
	if s == 0 {
		return nil, fmt.Errorf("weights: constant attribute")
	}
	out := make([]float64, n)
	fn := float64(n)
	for i, list := range w.Neighbors {
		// Binary weights including self: wSum = #neighbors + 1.
		wSum := float64(len(list) + 1)
		sum := x[i]
		for _, j := range list {
			sum += x[j]
		}
		den := s * math.Sqrt((fn*wSum-wSum*wSum)/(fn-1))
		if den == 0 {
			continue
		}
		out[i] = (sum - mean*wSum) / den
	}
	return out, nil
}
