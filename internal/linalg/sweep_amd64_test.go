package linalg

import "testing"

// TestAVX512Usable is the assembly kernels' feature gate: they need
// AVX-512F and AVX-512VL from the CPU and XGETBV, opmask and ZMM state
// from the OS; anything less sweeps on the Go kernel.
func TestAVX512Usable(t *testing.T) {
	const fvl = cpuidAVX512F | cpuidAVX512VL
	for _, tc := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      bool
	}{
		{"F+VL with ZMM state", 7, cpuidOSXSAVE, fvl, xcr0ZMM, true},
		{"F+VL, higher max leaf, more XCR0 state", 0x20, cpuidOSXSAVE | 1<<28, fvl | 1<<17, xcr0ZMM | 1<<9, true},
		{"F without VL", 7, cpuidOSXSAVE, cpuidAVX512F, xcr0ZMM, false},
		{"VL without F", 7, cpuidOSXSAVE, cpuidAVX512VL, xcr0ZMM, false},
		{"no OSXSAVE", 7, 0, fvl, xcr0ZMM, false},
		{"XCR0 without opmask", 7, cpuidOSXSAVE, fvl, xcr0ZMM &^ (1 << 5), false},
		{"XCR0 without ZMM0-15 upper halves", 7, cpuidOSXSAVE, fvl, xcr0ZMM &^ (1 << 6), false},
		{"XCR0 without ZMM16-31", 7, cpuidOSXSAVE, fvl, xcr0ZMM &^ (1 << 7), false},
		{"XCR0 without AVX state", 7, cpuidOSXSAVE, fvl, xcr0ZMM &^ (1 << 2), false},
		{"max leaf below 7", 6, cpuidOSXSAVE, fvl, xcr0ZMM, false},
	} {
		if got := avx512Usable(tc.maxLeaf, tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: avx512Usable = %v, want %v", tc.name, got, tc.want)
		}
	}
}
