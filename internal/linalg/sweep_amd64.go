package linalg

import "unsafe"

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// hasAVX512 reads the CPU feature words avx512Usable decides on. XGETBV
// is only executed when the OS has enabled it (OSXSAVE), and leaf 7 only
// read when the CPU has it.
func hasAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return avx512Usable(maxLeaf, ecx1, ebx7, xcr0)
}

const (
	cpuidOSXSAVE  = 1 << 27 // leaf 1 ECX: the OS enabled XGETBV
	cpuidAVX512F  = 1 << 16 // leaf 7 EBX
	cpuidAVX512VL = 1 << 31 // leaf 7 EBX: opmasked XMM and YMM forms
	// xcr0ZMM is XCR0 bits 1, 2, 5, 6, 7: SSE, AVX, opmask, ZMM0-15 upper
	// halves, ZMM16-31.
	xcr0ZMM = 0xe6
)

// avx512Usable reports whether the sweep kernels can run given CPUID's
// highest basic leaf, leaf 1's ECX, leaf 7's EBX and XCR0: the CPU
// implements AVX-512F and AVX-512VL, and the OS saves the opmask and
// 512-bit register state across context switches.
func avx512Usable(maxLeaf, ecx1, ebx7, xcr0 uint32) bool {
	const avx512 = cpuidAVX512F | cpuidAVX512VL
	return maxLeaf >= 7 && ecx1&cpuidOSXSAVE != 0 && xcr0&xcr0ZMM == xcr0ZMM && ebx7&avx512 == avx512
}

// The kernels run the fused sweep (see Sweep) over rows [lo, hi) for one
// group of columns: sweepQuadX, sweepQuadY and sweepQuadZ up to 2, 4 and 8
// columns in one XMM, YMM or ZMM register, four rows at a time, and
// sweep16AVX512 up to 16 columns in two ZMM registers, one row at a time.
// offs are the nonzeros' panel-row offsets (Sweep.offs), src and dst
// point at the group's first column in row 0 and stride is the panel row
// length in bytes. lanes masks the group's columns (other lanes are
// neither loaded nor stored) and rmask the columns that get rst added
// after scaling. dmax and amax point at the group's |next − cur| and
// |next| state in Sweep.part, which the kernel loads under lanes, folds
// every row into, and stores back.
//
// Per lane the operation order is the scalar solve's: accumulate from +0
// with VMULPD then VADDPD (never FMA) in nonzero order, VMULPD by c,
// VADDPD of rst, VSUBPD of cur, then clear the sign bit and take an
// unsigned max of the bit patterns.
//
//go:noescape
func sweepQuadX(rowPtr *int, offs *int32, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)

//go:noescape
func sweepQuadY(rowPtr *int, offs *int32, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)

//go:noescape
func sweepQuadZ(rowPtr *int, offs *int32, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)

//go:noescape
func sweep16AVX512(rowPtr *int, offs *int32, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)

// rowsAVX512 is Sweep.rows on the assembly kernels: columns in groups of
// 16, each group in the narrowest register class that holds it.
func (s *Sweep) rowsAVX512(dst, src *Panel, lo, hi int, rcols []int) {
	q, part := s.q, s.part
	// An empty matrix has no vals[0]; SliceData never indexes, and no row
	// has a nonzero for the kernel to dereference.
	rowPtr, offs, vals := unsafe.SliceData(s.m.rowPtr), unsafe.SliceData(s.offs), unsafe.SliceData(s.m.vals)
	stride := 8 * q
	for jj := 0; jj < q; jj += 16 {
		w := min(16, q-jj)
		lanes := uint64(1)<<w - 1
		rmask := restartLanes(rcols, jj, w)
		kernel := sweep16AVX512
		switch {
		case w <= 2:
			kernel = sweepQuadX
		case w <= 4:
			kernel = sweepQuadY
		case w <= 8:
			kernel = sweepQuadZ
		}
		kernel(rowPtr, offs, vals, lo, hi, &src.data[jj], &dst.data[jj], stride,
			s.c, s.restart, lanes, rmask, &part[jj], &part[q+jj])
	}
}

// restartLanes returns the bit mask of the columns in rcols that fall in
// the group [jj, jj+w), bit i standing for column jj+i.
func restartLanes(rcols []int, jj, w int) uint64 {
	var m uint64
	for _, j := range rcols {
		if j >= jj && j < jj+w {
			m |= 1 << (j - jj)
		}
	}
	return m
}
