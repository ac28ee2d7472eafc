// Package splitmix is the repository's one SplitMix64 generator (Steele, Lea
// and Flood, 2014): a Weyl-sequence state advanced by Gamma and scrambled by
// Mix into a 64-bit draw. It is tiny, seedable and allocation-free, which is
// why the breaker's backoff jitter, the fault injector's per-point draws, the
// trace ID stream and the serving envelope's Retry-After jitter all use it.
//
// Callers keep their own state and choose how to advance it: a single-owner
// state feeds each output back as the next state (Next), while a shared
// atomic state adds Gamma with one atomic add and mixes the result (Mix).
package splitmix

// Gamma is the Weyl-sequence increment added to the state before each draw.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 output function: it turns an advanced state into a
// well-scrambled 64-bit draw.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next advances x by Gamma and mixes it: one step of a generator whose
// output is fed back as its next state.
func Next(x uint64) uint64 { return Mix(x + Gamma) }

// Float64 maps a draw to a uniform float in [0, 1) from its top 53 bits.
func Float64(z uint64) float64 { return float64(z>>11) / (1 << 53) }
