package linalg

import (
	"cmp"
	"fmt"
	"slices"
)

// CSR is a sparse matrix in compressed-sparse-row form. Rows index the
// output of MulVec; the matrix need not be square or symmetric.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Triple is a coordinate-form matrix entry.
type Triple struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a CSR matrix from coordinate triples in O(nnz): entries
// are bucketed by row in input order, and only rows whose columns arrive
// out of order are stable-sorted. Duplicate coordinates are summed in input
// order. Zero values are kept (callers may rely on explicit zeros);
// out-of-range coordinates are an error.
func NewCSR(rows, cols int, entries []Triple) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("linalg: invalid CSR shape %dx%d", rows, cols)
	}
	rowPtr := make([]int, rows+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("linalg: entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols)
		}
		rowPtr[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int, len(entries))
	vals := make([]float64, len(entries))
	fill := make([]int, rows)
	copy(fill, rowPtr)
	for _, e := range entries {
		k := fill[e.Row]
		colIdx[k], vals[k] = e.Col, e.Val
		fill[e.Row]++
	}
	// Order each row by column and sum duplicates, compacting in place:
	// row r's entries move to [out, …), never past where they were read.
	var tmp []Triple
	out := 0
	for r := 0; r < rows; r++ {
		lo, hi := rowPtr[r], rowPtr[r+1]
		rowPtr[r] = out
		if !slices.IsSorted(colIdx[lo:hi]) {
			tmp = tmp[:0]
			for k := lo; k < hi; k++ {
				tmp = append(tmp, Triple{Col: colIdx[k], Val: vals[k]})
			}
			slices.SortStableFunc(tmp, func(a, b Triple) int { return cmp.Compare(a.Col, b.Col) })
			for i, e := range tmp {
				colIdx[lo+i], vals[lo+i] = e.Col, e.Val
			}
		}
		for k := lo; k < hi; {
			c, v := colIdx[k], 0.0
			for ; k < hi && colIdx[k] == c; k++ {
				v += vals[k]
			}
			colIdx[out], vals[out] = c, v
			out++
		}
	}
	rowPtr[rows] = out
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx[:out], vals: vals[:out]}, nil
}

// NewCSRFromRows wraps arrays that are already in row order: row r's
// entries are colIdx[rowPtr[r]:rowPtr[r+1]] with parallel vals. It checks
// that rowPtr is monotone and spans both arrays and that each row's
// columns are strictly ascending and in range, then takes ownership of the
// slices; no entry is copied, sorted or summed. Callers that produce
// coordinate triples use NewCSR instead.
func NewCSRFromRows(rows, cols int, rowPtr, colIdx []int, vals []float64) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("linalg: invalid CSR shape %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) || len(colIdx) != len(vals) {
		return nil, fmt.Errorf("linalg: row pointer of length %d does not span %d columns and %d values over %d rows",
			len(rowPtr), len(colIdx), len(vals), rows)
	}
	for r := 0; r < rows; r++ {
		lo, hi := rowPtr[r], rowPtr[r+1]
		if lo > hi || hi > len(colIdx) {
			return nil, fmt.Errorf("linalg: row pointer not monotone at row %d", r)
		}
		prev := -1
		for _, c := range colIdx[lo:hi] {
			if c <= prev || c >= cols {
				return nil, fmt.Errorf("linalg: row %d column %d out of order or out of %dx%d", r, c, rows, cols)
			}
			prev = c
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// Row returns the column indices and values of row r as views into the
// matrix storage.
func (m *CSR) Row(r int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// At returns the (r, c) entry, 0 if absent. O(log nnz(row)).
func (m *CSR) At(r, c int) float64 {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.colIdx[mid] == c:
			return m.vals[mid]
		case m.colIdx[mid] < c:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// MulVec computes y = M x, allocating y. len(x) must equal Cols.
func (m *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = M x into a caller-provided y of length Rows.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch: M %dx%d, x %d, y %d", m.rows, m.cols, len(x), len(y)))
	}
	for r := 0; r < m.rows; r++ {
		var s float64
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			s += m.vals[i] * x[m.colIdx[i]]
		}
		y[r] = s
	}
}

// MulVecTransTo computes y = Mᵀ x into y of length Cols (x of length Rows).
func (m *CSR) MulVecTransTo(y, x []float64) {
	if len(x) != m.rows || len(y) != m.cols {
		panic(fmt.Sprintf("linalg: MulVecTrans shape mismatch: M %dx%d, x %d, y %d", m.rows, m.cols, len(x), len(y)))
	}
	Fill(y, 0)
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			y[m.colIdx[i]] += m.vals[i] * xr
		}
	}
}

// Transpose returns Mᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{rows: m.cols, cols: m.rows, rowPtr: make([]int, m.cols+1)}
	t.colIdx = make([]int, len(m.colIdx))
	t.vals = make([]float64, len(m.vals))
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for r := 0; r < t.rows; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	fill := make([]int, t.rows)
	copy(fill, t.rowPtr[:t.rows])
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			t.colIdx[fill[c]] = r
			t.vals[fill[c]] = m.vals[i]
			fill[c]++
		}
	}
	return t
}

// ColumnSums returns the vector of column sums, used to verify stochastic
// normalization in tests.
func (m *CSR) ColumnSums() []float64 {
	s := make([]float64, m.cols)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			s[m.colIdx[i]] += m.vals[i]
		}
	}
	return s
}

// Dense expands the matrix to a dense representation (tests only).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			d.Set(r, m.colIdx[i], m.vals[i])
		}
	}
	return d
}
