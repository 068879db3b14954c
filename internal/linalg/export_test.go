package linalg

// SweepKernels lists the sweep kernels this host can run: the Go kernel
// always, the AVX-512 kernel when the CPU and OS support it.
func SweepKernels() []string {
	if hasAVX512() {
		return []string{"go", "avx512"}
	}
	return []string{"go"}
}

// UseSweepKernel makes Sweeps built from now on use the named kernel and
// returns a function that restores the previous choice.
func UseSweepKernel(name string) (restore func()) {
	old := useAVX512
	useAVX512 = name == "avx512"
	return func() { useAVX512 = old }
}
