package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Sweep is one power-iteration step of a blocked random walk with restart,
// fused into a single pass over the panels:
//
//	next[:, j] = c · (M · cur[:, j]) + (1 − c) · e_{queries[j]}
//	res[j]       = max_r |next[r, j] − cur[r, j]|
//	nonFinite[j] = next[:, j] holds a NaN or ±Inf
//
// Each matrix row is visited once per group of up to 16 columns: the
// row's nonzeros accumulate into registers, the sum is scaled by c, the
// restart mass is added at the rows that hold a query, and the stored
// value is folded into its column's residual and non-finite state, so one
// pass replaces the multiply, scale, restart and residual passes of an
// unfused sweep. Per column and per entry the arithmetic is the operation
// sequence of the scalar solve — MulVecTo (accumulate from +0, one
// multiply then one add per nonzero, in nonzero order), Scale, the
// restart add, MaxDiff and HasNonFinite — so every column of next is
// bit-identical to the scalar iterate, and every residual is too (a NaN
// difference yields a NaN residual, though not necessarily with the same
// payload).
//
// The inner loop is AVX-512 assembly on amd64 hosts whose CPU reports
// AVX-512F and AVX-512VL and whose OS saves the 512-bit state (CPUID and
// XGETBV, checked once at init), except in race builds. A group of up to
// 2, 4 or 8 columns runs in one XMM, YMM or ZMM register and sweeps four
// rows per loop with four independent accumulator chains; a group of 9 to
// 16 columns runs in two ZMM registers, one row per loop. The kernels
// address panel rows by int32 offsets, each column index premultiplied by
// the panel width, rather than multiplying per nonzero. Everywhere else
// register-blocked Go kernels store each group's scaled rows and fold a
// block of rows right after, while it is still in cache. The two kernels
// produce identical bits.
//
// A Sweep holds the scratch for one solve and sweeps on the calling
// goroutine. It is not safe for concurrent use.
type Sweep struct {
	m       *CSR
	q       int
	c       float64
	restart float64
	// rrows are the distinct rows that hold a query, ascending; rcols[k]
	// lists the columns whose restart mass lands on rrows[k].
	rrows []int
	rcols [][]int
	// part is the sweep's residual state: [0, q) holds each column's
	// largest |next − cur| as Float64bits, [q, 2q) its largest |next|.
	// Clearing the sign bit makes the bit patterns of these magnitudes
	// order like their values, with every NaN above +Inf, so an unsigned
	// max is the float max whenever no NaN occurs and is NaN whenever one
	// does — the MaxDiff rule.
	part []uint64
	// avx512 selects the assembly kernels, which address panel rows by
	// offs: the nonzeros' column indices times q, as int32, built once per
	// Sweep (one pass over the nonzeros against a solve's tens of sweeps).
	avx512 bool
	offs   []int32
}

// useAVX512 selects the assembly kernel for Sweeps built from now on. It
// is set once at init from the CPU features, and left off in race builds
// so that the detector sees every sweep's loads and stores; tests flip it
// to run both kernels on the same host.
var useAVX512 = hasAVX512() && !raceEnabled

// sweepBlockRows bounds the rows one kernel call covers. Go does not
// preempt assembly, so a sweep is cut into calls of at most this many rows
// to keep the sweeping goroutine preemptible.
const sweepBlockRows = 2048

const (
	signBit = 1 << 63
	infBits = 0x7ff0000000000000 // Float64bits(+Inf): magnitudes at or above it are non-finite
)

// offsetsFit reports whether every panel-row offset c·q of a matrix with
// n columns fits in int32. Wider products sweep on the Go kernel.
func offsetsFit(n, q int) bool { return q <= math.MaxInt32/max(n, 1) }

// NewSweep prepares fused sweeps of m over panels with len(queries)
// columns, where column j restarts at row queries[j] (duplicates allowed).
// m must be square.
func NewSweep(m *CSR, queries []int, c, restart float64) *Sweep {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: sweep of non-square %dx%d matrix", m.rows, m.cols))
	}
	if len(queries) == 0 {
		panic("linalg: sweep with no columns")
	}
	s := &Sweep{m: m, q: len(queries), c: c, restart: restart, part: make([]uint64, 2*len(queries))}
	if useAVX512 && offsetsFit(m.cols, s.q) {
		s.avx512 = true
		s.offs = make([]int32, len(m.colIdx))
		for i, col := range m.colIdx {
			s.offs[i] = int32(col * s.q)
		}
	}
	order := make([]int, len(queries))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return queries[order[a]] < queries[order[b]] })
	for _, j := range order {
		r := queries[j]
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("linalg: restart row %d out of range [0,%d)", r, m.rows))
		}
		if k := len(s.rrows); k > 0 && s.rrows[k-1] == r {
			s.rcols[k-1] = append(s.rcols[k-1], j)
			continue
		}
		s.rrows = append(s.rrows, r)
		s.rcols = append(s.rcols, []int{j})
	}
	return s
}

// Run computes dst from src (see Sweep) and fills res and nonFinite, one
// entry per column. dst and src must be distinct Rows×q panels.
func (s *Sweep) Run(dst, src *Panel, res []float64, nonFinite []bool) {
	if dst.rows != s.m.rows || src.rows != s.m.rows || dst.cols != s.q || src.cols != s.q {
		panic(fmt.Sprintf("linalg: sweep shape mismatch: M %dx%d, q %d, src %dx%d, dst %dx%d",
			s.m.rows, s.m.cols, s.q, src.rows, src.cols, dst.rows, dst.cols))
	}
	if len(res) != s.q || len(nonFinite) != s.q {
		panic(fmt.Sprintf("linalg: sweep output length %d/%d, panel has %d columns", len(res), len(nonFinite), s.q))
	}
	s.sweepRows(dst, src)
	q := s.q
	for j := 0; j < q; j++ {
		res[j] = math.Float64frombits(s.part[j])
		nonFinite[j] = s.part[q+j] >= infBits
	}
}

// sweepRows sweeps every row into part, in calls of at most
// sweepBlockRows rows. Each row that holds a query gets a one-row call of
// its own with its restart lanes set, and every other call has none, so
// the kernels add restart mass per call, with no per-entry branch.
func (s *Sweep) sweepRows(dst, src *Panel) {
	clear(s.part)
	next := 0
	for lo, hi := 0, s.m.rows; lo < hi; {
		end := min(hi, lo+sweepBlockRows)
		if next < len(s.rrows) && s.rrows[next] < end {
			end = s.rrows[next]
		}
		if lo < end {
			s.rows(dst, src, lo, end, nil)
			lo = end
			continue
		}
		s.rows(dst, src, lo, lo+1, s.rcols[next])
		next++
		lo++
	}
}

// rows runs the kernel over rows [lo, hi) for every column group. rcols,
// when non-nil, are the columns that restart at row lo (then hi = lo+1).
func (s *Sweep) rows(dst, src *Panel, lo, hi int, rcols []int) {
	if s.avx512 {
		s.rowsAVX512(dst, src, lo, hi, rcols)
		return
	}
	// The Go kernels store c·(M·cur) for each group, then add the restart
	// mass and fold the rows while they are still in cache: per entry the
	// same operations in the same order, with few enough live values per
	// loop that the compiler keeps them in registers.
	q := s.q
	jj := 0
	for ; jj+8 <= q; jj += 8 {
		s.go8(dst, src, lo, hi, jj)
	}
	if q-jj >= 4 {
		s.go4(dst, src, lo, hi, jj)
		jj += 4
	}
	if q-jj >= 2 {
		s.go2(dst, src, lo, hi, jj)
		jj += 2
	}
	if jj < q {
		s.go1(dst, src, lo, hi, jj)
	}
	for _, j := range rcols {
		dst.data[lo*q+j] += s.restart
	}
	dm, am := s.part[:q:q], s.part[q:2*q:2*q]
	for base := lo * q; base < hi*q; base += q {
		d := dst.data[base : base+q : base+q]
		o := src.data[base : base+q : base+q]
		for j, v := range d {
			dm[j] = max(dm[j], absBits(v-o[j]))
			am[j] = max(am[j], absBits(v))
		}
	}
}

// absBits returns the bit pattern of |x|: with the sign cleared, bit
// patterns order like magnitudes and every NaN sorts above +Inf (see
// Sweep.part).
func absBits(x float64) uint64 { return math.Float64bits(x) &^ signBit }

// go8 computes columns [jj, jj+8) of dst = c·(M·src) over rows [lo, hi)
// with eight register accumulators. Like the other widths it hoists the
// CSR arrays into locals and slices panel rows to a constant length so
// the compiler can prove the inner accesses in bounds.
func (s *Sweep) go8(dst, src *Panel, lo, hi, jj int) {
	q, c := s.q, s.c
	vals, colIdx, rowPtr := s.m.vals, s.m.colIdx, s.m.rowPtr
	sdata, ddata := src.data, dst.data
	for r := lo; r < hi; r++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		end := rowPtr[r+1]
		for i := rowPtr[r]; i < end; i++ {
			v := vals[i]
			b := colIdx[i]*q + jj
			x := sdata[b : b+8 : b+8]
			a0 += v * x[0]
			a1 += v * x[1]
			a2 += v * x[2]
			a3 += v * x[3]
			a4 += v * x[4]
			a5 += v * x[5]
			a6 += v * x[6]
			a7 += v * x[7]
		}
		b := r*q + jj
		d := ddata[b : b+8 : b+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0*c, a1*c, a2*c, a3*c, a4*c, a5*c, a6*c, a7*c
	}
}

// go4 computes columns [jj, jj+4) of dst = c·(M·src) over rows [lo, hi).
func (s *Sweep) go4(dst, src *Panel, lo, hi, jj int) {
	q, c := s.q, s.c
	vals, colIdx, rowPtr := s.m.vals, s.m.colIdx, s.m.rowPtr
	sdata, ddata := src.data, dst.data
	for r := lo; r < hi; r++ {
		var a0, a1, a2, a3 float64
		end := rowPtr[r+1]
		for i := rowPtr[r]; i < end; i++ {
			v := vals[i]
			b := colIdx[i]*q + jj
			x := sdata[b : b+4 : b+4]
			a0 += v * x[0]
			a1 += v * x[1]
			a2 += v * x[2]
			a3 += v * x[3]
		}
		b := r*q + jj
		d := ddata[b : b+4 : b+4]
		d[0], d[1], d[2], d[3] = a0*c, a1*c, a2*c, a3*c
	}
}

// go2 computes columns [jj, jj+2) of dst = c·(M·src) over rows [lo, hi).
func (s *Sweep) go2(dst, src *Panel, lo, hi, jj int) {
	q, c := s.q, s.c
	vals, colIdx, rowPtr := s.m.vals, s.m.colIdx, s.m.rowPtr
	sdata, ddata := src.data, dst.data
	for r := lo; r < hi; r++ {
		var a0, a1 float64
		end := rowPtr[r+1]
		for i := rowPtr[r]; i < end; i++ {
			v := vals[i]
			b := colIdx[i]*q + jj
			x := sdata[b : b+2 : b+2]
			a0 += v * x[0]
			a1 += v * x[1]
		}
		b := r*q + jj
		d := ddata[b : b+2 : b+2]
		d[0], d[1] = a0*c, a1*c
	}
}

// go1 computes column jj of dst = c·(M·src) over rows [lo, hi): the scalar
// solve's multiply and scale with strided panel access.
func (s *Sweep) go1(dst, src *Panel, lo, hi, jj int) {
	q, c := s.q, s.c
	vals, colIdx, rowPtr := s.m.vals, s.m.colIdx, s.m.rowPtr
	sdata, ddata := src.data, dst.data
	for r := lo; r < hi; r++ {
		var a float64
		end := rowPtr[r+1]
		for i := rowPtr[r]; i < end; i++ {
			a += vals[i] * sdata[colIdx[i]*q+jj]
		}
		ddata[r*q+jj] = a * c
	}
}
