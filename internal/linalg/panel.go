package linalg

import "fmt"

// Panel is a dense row-major n×q block of column vectors: the multi-source
// iterate of a blocked random-walk solve, where column j is query j's score
// vector. Row-major layout puts the q values a sparse row-sweep touches for
// one matrix nonzero next to each other, which is what lets the fused sweep
// (Sweep) stream the matrix once for all q right-hand sides.
type Panel struct {
	rows, cols int
	data       []float64
}

// NewPanel allocates a zeroed rows×cols panel.
func NewPanel(rows, cols int) *Panel {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid panel shape %dx%d", rows, cols))
	}
	return &Panel{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows (vector length).
func (p *Panel) Rows() int { return p.rows }

// Cols returns the number of columns (right-hand sides).
func (p *Panel) Cols() int { return p.cols }

// Reset re-dimensions the panel to rows×cols reusing its backing array,
// reporting false — and leaving the panel unchanged — when the capacity is
// insufficient. It does not zero the data; callers that need a clean slate
// call Zero. This is what lets a solve-buffer pool recycle panels across
// query sets of different sizes.
func (p *Panel) Reset(rows, cols int) bool {
	if rows <= 0 || cols <= 0 || rows*cols > cap(p.data) {
		return false
	}
	p.rows, p.cols = rows, cols
	p.data = p.data[:rows*cols]
	return true
}

// Row returns row r as a mutable view into the panel storage.
func (p *Panel) Row(r int) []float64 {
	return p.data[r*p.cols : (r+1)*p.cols]
}

// At returns the (r, c) entry.
func (p *Panel) At(r, c int) float64 { return p.data[r*p.cols+c] }

// Set stores v at (r, c).
func (p *Panel) Set(r, c int, v float64) { p.data[r*p.cols+c] = v }

// Zero clears every entry.
func (p *Panel) Zero() {
	for i := range p.data {
		p.data[i] = 0
	}
}

// Col returns a freshly allocated copy of column c.
func (p *Panel) Col(c int) []float64 {
	out := make([]float64, p.rows)
	for r := 0; r < p.rows; r++ {
		out[r] = p.data[r*p.cols+c]
	}
	return out
}

// SetCol overwrites column c with x (len(x) must equal Rows).
func (p *Panel) SetCol(c int, x []float64) {
	if len(x) != p.rows {
		panic(fmt.Sprintf("linalg: SetCol length %d, panel has %d rows", len(x), p.rows))
	}
	for r, v := range x {
		p.data[r*p.cols+c] = v
	}
}

// CopyColFrom overwrites column c of p with column c of src. Both panels
// must have the same shape. The blocked solver uses it to hold a converged
// column fixed while the other columns keep sweeping.
func (p *Panel) CopyColFrom(src *Panel, c int) {
	if p.rows != src.rows || p.cols != src.cols {
		panic(fmt.Sprintf("linalg: CopyColFrom shape mismatch: %dx%d vs %dx%d", p.rows, p.cols, src.rows, src.cols))
	}
	for r := 0; r < p.rows; r++ {
		p.data[r*p.cols+c] = src.data[r*p.cols+c]
	}
}
