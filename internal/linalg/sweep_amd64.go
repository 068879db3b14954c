package linalg

import "unsafe"

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// hasAVX512 reports whether the CPU implements AVX-512F and the OS saves
// the opmask and 512-bit register state across context switches.
func hasAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XCR0 bits 1, 2, 5, 6, 7: SSE, AVX, opmask, ZMM0-15 upper halves,
	// ZMM16-31.
	const zmmState = 0xe6
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// sweep8AVX512 and sweep16AVX512 run the fused sweep (see Sweep) over
// rows [lo, hi) for one group of up to 8 or 16 columns, in one or two
// 8-lane registers. src and dst point at the group's first column in row
// 0 and stride is the panel row length in bytes. lanes masks the group's
// columns (tail lanes are neither loaded nor stored) and rmask the columns
// that get rst added after scaling. dmax and amax point at the group's
// |next − cur| and |next| state in Sweep.parts, which the kernel loads
// under lanes, folds every row into, and stores back.
//
// Per lane the operation order is the scalar solve's: accumulate from +0
// with VMULPD then VADDPD (never FMA) in nonzero order, VMULPD by c,
// VADDPD of rst, VSUBPD of cur, then clear the sign bit and take an
// unsigned max of the bit patterns.
//
//go:noescape
func sweep8AVX512(rowPtr, colIdx *int, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)

//go:noescape
func sweep16AVX512(rowPtr, colIdx *int, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)

// rowsAVX512 is Sweep.rows on the assembly kernel: columns in groups of
// 16, the last group in one register when it has 8 columns or fewer.
func (s *Sweep) rowsAVX512(dst, src *Panel, lo, hi int, rcols []int, part []uint64) {
	q := s.q
	// An empty matrix has no vals[0]; SliceData never indexes, and no row
	// has a nonzero for the kernel to dereference.
	rowPtr, colIdx, vals := unsafe.SliceData(s.m.rowPtr), unsafe.SliceData(s.m.colIdx), unsafe.SliceData(s.m.vals)
	stride := 8 * q
	for jj := 0; jj < q; jj += 16 {
		w := min(16, q-jj)
		lanes := uint64(1)<<w - 1
		rmask := restartLanes(rcols, jj, w)
		kernel := sweep16AVX512
		if w <= 8 {
			kernel = sweep8AVX512
		}
		kernel(rowPtr, colIdx, vals, lo, hi, &src.data[jj], &dst.data[jj], stride,
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
