package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refSweep is the scalar reference for one fused sweep, column by column:
// MulVecTo, Scale, the restart add, MaxDiff and HasNonFinite — the
// operation sequence of one ScoresCtx iteration.
func refSweep(m *CSR, src *Panel, queries []int, c, restart float64) (*Panel, []float64, []bool) {
	q := src.Cols()
	next := NewPanel(m.Rows(), q)
	res := make([]float64, q)
	nonFinite := make([]bool, q)
	y := make([]float64, m.Rows())
	for j := 0; j < q; j++ {
		x := src.Col(j)
		m.MulVecTo(y, x)
		Scale(c, y)
		y[queries[j]] += restart
		res[j] = MaxDiff(y, x)
		nonFinite[j] = HasNonFinite(y)
		next.SetCol(j, y)
	}
	return next, res, nonFinite
}

// sameBits reports whether a and b are the same float64, counting any two
// NaNs as equal: a NaN payload carries no meaning here (a NaN residual or
// entry aborts the solve with ErrDiverged whatever its bits).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSweep runs one fused sweep with the current kernel and compares
// every entry, residual and flag against refSweep.
func checkSweep(t *testing.T, name string, m *CSR, src *Panel, queries []int, c, restart float64) {
	t.Helper()
	wantNext, wantRes, wantNF := refSweep(m, src, queries, c, restart)
	q := len(queries)
	// dst's backing array holds one more row, a guard no store may reach.
	dst := NewPanel(m.Rows()+1, q)
	dst.Reset(m.Rows(), q)
	guard := dst.data[len(dst.data):cap(dst.data)]
	for i := range guard {
		guard[i] = -1
	}
	res := make([]float64, q)
	nonFinite := make([]bool, q)
	NewSweep(m, queries, c, restart).Run(dst, src, res, nonFinite)
	for i, v := range guard {
		if v != -1 {
			t.Fatalf("%s: store past the last row: guard entry %d is %v", name, i, v)
		}
	}
	for j := 0; j < q; j++ {
		if !sameBits(res[j], wantRes[j]) {
			t.Fatalf("%s: column %d residual %v (%#x), reference %v (%#x)",
				name, j, res[j], math.Float64bits(res[j]), wantRes[j], math.Float64bits(wantRes[j]))
		}
		if nonFinite[j] != wantNF[j] {
			t.Fatalf("%s: column %d non-finite flag %v, reference %v", name, j, nonFinite[j], wantNF[j])
		}
		for r := 0; r < m.Rows(); r++ {
			if got, want := dst.At(r, j), wantNext.At(r, j); !sameBits(got, want) {
				t.Fatalf("%s: column %d row %d: %v (%#x), reference %v (%#x)",
					name, j, r, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// randPanel fills a rows×q panel with values drawn by gen.
func randPanel(rows, q int, gen func() float64) *Panel {
	p := NewPanel(rows, q)
	for i := range p.data {
		p.data[i] = gen()
	}
	return p
}

// TestSweepConformance is the fused kernel's contract, run for every
// kernel the host has: each column of the sweep, its residual and its
// non-finite flag equal the scalar reference bit for bit (NaNs equal as
// NaNs), and no store lands past the panel, for every width from 1 to 40
// plus 64 and 256, with restart rows at the first and last row and
// duplicated, over matrices with empty rows, an empty matrix, subnormal
// operands, and NaN and ±Inf planted in the current iterate. At the
// widths either side of every register class boundary it also places
// restart rows so that the kernel calls between them cover every length
// up to 7, so each partial tail of the four-row kernels runs, and sweeps
// matrices of 1 to 3 rows.
func TestSweepConformance(t *testing.T) {
	const n = 61
	widths := []int{64, 256}
	for w := 1; w <= 40; w++ {
		widths = append(widths, w)
	}
	empty, err := NewCSR(n, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range SweepKernels() {
		t.Run(k, func(t *testing.T) {
			t.Cleanup(UseSweepKernel(k))
			rng := rand.New(rand.NewSource(41))
			sparse := randCSR(t, rng, n, n, 3*n) // many empty rows
			dense := randCSR(t, rng, n, n, 20*n)
			subEntries := make([]Triple, 0, 8*n)
			for i := 0; i < 8*n; i++ {
				subEntries = append(subEntries, Triple{rng.Intn(n), rng.Intn(n), 0x1p-1030 * rng.Float64()})
			}
			subnormal, err := NewCSR(n, n, subEntries)
			if err != nil {
				t.Fatal(err)
			}
			type matrixCase struct {
				name string
				m    *CSR
				gen  func() float64
			}
			matrices := []matrixCase{
				{"sparse", sparse, rng.NormFloat64},
				{"dense", dense, rng.NormFloat64},
				{"empty", empty, rng.NormFloat64},
				{"subnormal", subnormal, func() float64 { return 0x1p-1000 * rng.NormFloat64() }},
				{"subnormal-cur", dense, func() float64 { return 0x1p-1060 * rng.NormFloat64() }},
			}
			for _, mc := range matrices {
				for _, w := range widths {
					queries := make([]int, w)
					for j := range queries {
						queries[j] = rng.Intn(n)
					}
					queries[0] = 0
					queries[w-1] = n - 1
					if w > 2 {
						queries[1] = queries[w-1] // duplicated restart row
					}
					src := randPanel(n, w, mc.gen)
					name := fmt.Sprintf("%s/width=%d", mc.name, w)
					checkSweep(t, name, mc.m, src, queries, 0.5, 0.5)
				}
			}
			// Kernel call shapes: each restart row is a one-row call of
			// its own, so a lone restart at row k leaves a k-row call
			// before it, and restarts at 1, 4, 8, 14, 21 and 29 leave
			// calls of 1, 2, 3, 5, 6 and 7 rows (4 is a full group)
			// between them; the other placements put restart rows on the
			// first, inner and last rows of a group. Matrices of 1 to 3
			// rows are smaller than one group.
			boundaryWidths := []int{1, 2, 3, 4, 5, 8, 9, 16, 17}
			placements := [][]int{{1}, {2}, {3}, {5}, {6}, {7}, {1, 4, 8, 14, 21, 29},
				{24}, {25}, {26}, {27}, {24, 27}, {25, 26, 28}, {23, 31, n - 1}}
			for _, w := range boundaryWidths {
				for _, at := range placements {
					queries := make([]int, w)
					for j := range queries {
						queries[j] = at[j%len(at)]
					}
					src := randPanel(n, w, rng.NormFloat64)
					name := fmt.Sprintf("restarts=%v/width=%d", at, w)
					checkSweep(t, name, dense, src, queries, 0.5, 0.5)
					checkSweep(t, "sparse "+name, sparse, src, queries, 0.5, 0.5)
				}
			}
			for rows := 1; rows <= 3; rows++ {
				tiny := randCSR(t, rng, rows, rows, 2*rows*rows)
				for _, w := range boundaryWidths {
					queries := make([]int, w)
					for j := range queries {
						queries[j] = rng.Intn(rows)
					}
					src := randPanel(rows, w, rng.NormFloat64)
					name := fmt.Sprintf("%d rows/width=%d", rows, w)
					checkSweep(t, name, tiny, src, queries, 0.5, 0.5)
				}
			}
			// Non-finite values in the current iterate: a NaN entry
			// poisons its column's residual and (through its row's
			// neighbours) the flag, ±Inf makes an Inf or NaN difference.
			for _, w := range []int{1, 3, 8, 9, 16, 17, 33, 64} {
				queries := make([]int, w)
				for j := range queries {
					queries[j] = rng.Intn(n)
				}
				for _, plant := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					src := randPanel(n, w, rng.NormFloat64)
					src.Set(rng.Intn(n), rng.Intn(w), plant)
					src.Set(n-1, w-1, plant)
					name := fmt.Sprintf("planted %v/width=%d", plant, w)
					checkSweep(t, name, dense, src, queries, 0.5, 0.5)
					// The same plant on an isolated node (an empty row
					// and column) leaves next finite but the residual
					// non-finite.
					src = randPanel(n, w, rng.NormFloat64)
					src.Set(5, w-1, plant)
					checkSweep(t, "isolated "+name, sparseWithout(t, sparse, 5), src, queries, 0.5, 0.5)
				}
			}
		})
	}
}

// TestPanelColMaxDiffNaN pins the per-column residual rule on a one-column
// panel: the residual is the largest |next − cur|, a NaN difference makes
// it NaN, and the non-finite flag catches NaN and +Inf in next without
// false positives. With M = I and c = 1, next = cur + 2·e_0.
func TestPanelColMaxDiffNaN(t *testing.T) {
	id, err := NewCSR(3, 3, []Triple{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range SweepKernels() {
		t.Run(k, func(t *testing.T) {
			t.Cleanup(UseSweepKernel(k))
			sw := NewSweep(id, []int{0}, 1, 2)
			run := func(cur *Panel) (float64, bool) {
				next := NewPanel(3, 1)
				res, nonFinite := make([]float64, 1), make([]bool, 1)
				sw.Run(next, cur, res, nonFinite)
				return res[0], nonFinite[0]
			}
			cur := NewPanel(3, 1)
			cur.Set(0, 0, 1)
			if res, nf := run(cur); res != 2 || nf {
				t.Fatalf("finite column: residual %v, non-finite %v; want 2, false", res, nf)
			}
			cur.Set(1, 0, math.NaN())
			if res, nf := run(cur); !math.IsNaN(res) || !nf {
				t.Fatalf("NaN entry: residual %v, non-finite %v; want NaN, true", res, nf)
			}
			cur.Set(1, 0, 0)
			cur.Set(2, 0, math.Inf(1))
			if res, nf := run(cur); !math.IsNaN(res) || !nf {
				t.Fatalf("+Inf entry: residual %v (Inf − Inf), non-finite %v; want NaN, true", res, nf)
			}
		})
	}
}

// TestColResidualsMatchesPerColumnScans pins the sweep's fused residual
// pass to per-column scans of the panels it read and wrote: every column's
// residual equals MaxDiff(next column, cur column) and its flag equals
// HasNonFinite(next column), including columns poisoned by NaN and Inf.
func TestColResidualsMatchesPerColumnScans(t *testing.T) {
	const rows, cols = 37, 7
	for _, k := range SweepKernels() {
		t.Run(k, func(t *testing.T) {
			t.Cleanup(UseSweepKernel(k))
			rng := rand.New(rand.NewSource(23))
			// Node 9 is isolated, so a NaN planted there makes a NaN
			// difference while next stays finite.
			m := sparseWithout(t, randCSR(t, rng, rows, rows, 6*rows), 9)
			cur := randPanel(rows, cols, rng.NormFloat64)
			cur.Set(3, 1, math.NaN())  // NaN difference and non-finite entries
			cur.Set(5, 2, math.Inf(1)) // non-finite difference and entries
			cur.Set(9, 4, math.NaN())  // NaN difference with a finite column
			queries := []int{0, 9, 5, 3, rows - 1, 20, 20}
			next := NewPanel(rows, cols)
			res, nonFinite := make([]float64, cols), make([]bool, cols)
			sw := NewSweep(m, queries, 0.85, 0.15)
			sw.Run(next, cur, res, nonFinite)
			for c := 0; c < cols; c++ {
				if want := MaxDiff(next.Col(c), cur.Col(c)); !sameBits(res[c], want) {
					t.Errorf("col %d: fused residual %v, MaxDiff %v", c, res[c], want)
				}
				if want := HasNonFinite(next.Col(c)); nonFinite[c] != want {
					t.Errorf("col %d: fused non-finite %v, HasNonFinite %v", c, nonFinite[c], want)
				}
			}
			if !math.IsNaN(res[4]) || nonFinite[4] {
				t.Errorf("col 4: residual %v, non-finite %v; want NaN, false", res[4], nonFinite[4])
			}

			func() {
				defer func() {
					if recover() == nil {
						t.Error("short output slices should panic")
					}
				}()
				sw.Run(next, cur, res[:1], nonFinite)
			}()
		})
	}
}

// sparseWithout returns m with every entry in row or column v dropped.
func sparseWithout(t *testing.T, m *CSR, v int) *CSR {
	t.Helper()
	var entries []Triple
	for r := 0; r < m.Rows(); r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			if r != v && c != v {
				entries = append(entries, Triple{r, c, vals[i]})
			}
		}
	}
	out, err := NewCSR(m.Rows(), m.Cols(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepLongRanges covers sweeps longer than one kernel call, with
// restart rows on and next to the call boundaries.
func TestSweepLongRanges(t *testing.T) {
	const n = 2*sweepBlockRows + 300
	for _, k := range SweepKernels() {
		t.Run(k, func(t *testing.T) {
			t.Cleanup(UseSweepKernel(k))
			rng := rand.New(rand.NewSource(43))
			m := randCSR(t, rng, n, n, 12*n)
			for _, w := range []int{1, 12, 17} {
				queries := make([]int, w)
				for j := range queries {
					queries[j] = rng.Intn(n)
				}
				queries[0] = sweepBlockRows - 1
				queries[w-1] = sweepBlockRows
				src := randPanel(n, w, rng.NormFloat64)
				checkSweep(t, fmt.Sprintf("width=%d", w), m, src, queries, 0.85, 0.15)
			}
		})
	}
}

// TestSweepBitIdenticalPerColumn is the kernel contract on small shapes,
// down to a single row: column j of the sweep equals MulVecTo → Scale →
// restart over column j bit for bit, because the per-column operation
// sequence is identical.
func TestSweepBitIdenticalPerColumn(t *testing.T) {
	for _, k := range SweepKernels() {
		t.Run(k, func(t *testing.T) {
			t.Cleanup(UseSweepKernel(k))
			rng := rand.New(rand.NewSource(7))
			for _, shape := range []struct{ n, nnz, q int }{
				{1, 1, 1},
				{40, 200, 1},
				{60, 300, 4},
				{53, 401, 8},
			} {
				m := randCSR(t, rng, shape.n, shape.n, shape.nnz)
				queries := make([]int, shape.q)
				for j := range queries {
					queries[j] = rng.Intn(shape.n)
				}
				src := randPanel(shape.n, shape.q, rng.NormFloat64)
				checkSweep(t, fmt.Sprintf("%dx%d q=%d", shape.n, shape.n, shape.q), m, src, queries, 0.5, 0.5)
			}
		})
	}
}

func TestSweepShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randCSR(t, rng, 10, 10, 40)
	check := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	res, nonFinite := make([]float64, 2), make([]bool, 2)
	check("non-square", func() { NewSweep(randCSR(t, rng, 10, 12, 40), []int{0}, 0.5, 0.5) })
	check("no columns", func() { NewSweep(m, nil, 0.5, 0.5) })
	check("restart row", func() { NewSweep(m, []int{10}, 0.5, 0.5) })
	sw := NewSweep(m, []int{0, 1}, 0.5, 0.5)
	check("src rows", func() { sw.Run(NewPanel(10, 2), NewPanel(11, 2), res, nonFinite) })
	check("dst rows", func() { sw.Run(NewPanel(9, 2), NewPanel(10, 2), res, nonFinite) })
	check("col mismatch", func() { sw.Run(NewPanel(10, 3), NewPanel(10, 3), res, nonFinite) })
	check("short output", func() { sw.Run(NewPanel(10, 2), NewPanel(10, 2), res[:1], nonFinite) })
}

// TestSweepOffsetsFallback covers the int32 limit of the kernels' panel-row
// offsets: where some column index times the panel width would not fit,
// no offsets are built and the sweep runs the Go kernel, whichever kernel
// is selected.
func TestSweepOffsetsFallback(t *testing.T) {
	const n = 1 << 16
	if !offsetsFit(n, math.MaxInt32/n) || offsetsFit(n, math.MaxInt32/n+1) || !offsetsFit(0, 5) {
		t.Fatal("offsetsFit misplaces the int32 limit")
	}
	wide, err := NewCSR(n, n, []Triple{{0, n - 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range SweepKernels() {
		t.Run(k, func(t *testing.T) {
			t.Cleanup(UseSweepKernel(k))
			q := math.MaxInt32/n + 1
			if sw := NewSweep(wide, make([]int, q), 0.5, 0.5); sw.avx512 || sw.offs != nil {
				t.Errorf("width %d: assembly kernel %v, offsets built %v past the int32 limit", q, sw.avx512, sw.offs != nil)
			}
			if sw := NewSweep(wide, make([]int, q-1), 0.5, 0.5); sw.avx512 != (k == "avx512") || (sw.offs != nil) != sw.avx512 {
				t.Errorf("width %d: assembly kernel %v, offsets built %v", q-1, sw.avx512, sw.offs != nil)
			}
		})
	}
}
