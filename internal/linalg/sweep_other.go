//go:build !amd64

package linalg

// Without the amd64 assembly every sweep runs the Go kernels.
func hasAVX512() bool { return false }

func (s *Sweep) rowsAVX512(dst, src *Panel, lo, hi int, rcols []int) {
	panic("linalg: AVX-512 sweep kernel on a non-amd64 build")
}
