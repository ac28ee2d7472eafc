package splitmix

import "testing"

// TestReferenceSequence pins the first outputs of the reference generator
// seeded with 0: the state advances by Gamma and each output is Mix(state).
func TestReferenceSequence(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		state += Gamma
		if got := Mix(state); got != w {
			t.Fatalf("output %d = %#016x, want %#016x", i, got, w)
		}
	}
}

// TestNextFromZero: Next advances before mixing, so its first step from
// seed 0 is the reference sequence's first output.
func TestNextFromZero(t *testing.T) {
	if got := Next(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("Next(0) = %#016x", got)
	}
}

func TestFloat64Range(t *testing.T) {
	for _, z := range []uint64{0, 1 << 11, ^uint64(0)} {
		if f := Float64(z); f < 0 || f >= 1 {
			t.Fatalf("Float64(%#x) = %v outside [0, 1)", z, f)
		}
	}
	if got := Float64(^uint64(0)); got != 1-1.0/(1<<53) {
		t.Fatalf("Float64(max) = %v", got)
	}
}
