package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix used for the closed-form random-walk
// solution (Eq. 12) on small graphs and as a test oracle for the sparse
// code. It is not intended for the full DBLP-scale graph.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dense shape %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1)
	}
	return d
}

// Rows returns the number of rows.
func (d *Dense) Rows() int { return d.rows }

// Cols returns the number of columns.
func (d *Dense) Cols() int { return d.cols }

// At returns element (r, c).
func (d *Dense) At(r, c int) float64 { return d.data[r*d.cols+c] }

// Set assigns element (r, c).
func (d *Dense) Set(r, c int, v float64) { d.data[r*d.cols+c] = v }

// Add increments element (r, c).
func (d *Dense) Add(r, c int, v float64) { d.data[r*d.cols+c] += v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.rows, d.cols)
	copy(c.data, d.data)
	return c
}

// MulVec computes y = D x.
func (d *Dense) MulVec(x []float64) []float64 {
	if len(x) != d.cols {
		panic("linalg: dense MulVec shape mismatch")
	}
	y := make([]float64, d.rows)
	for r := 0; r < d.rows; r++ {
		row := d.data[r*d.cols : (r+1)*d.cols]
		y[r] = Dot(row, x)
	}
	return y
}

// LU holds an LU factorization with partial pivoting of a square matrix.
type LU struct {
	n    int
	lu   []float64 // combined L (unit lower) and U factors, row-major
	piv  []int
	sign int
}

// Factorize computes the LU decomposition of a square matrix. It returns an
// error if the matrix is singular to working precision.
func (d *Dense) Factorize() (*LU, error) {
	if d.rows != d.cols {
		return nil, fmt.Errorf("linalg: LU of non-square %dx%d matrix", d.rows, d.cols)
	}
	n := d.rows
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, d.data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest |entry| at or below the diagonal.
		p, pmax := col, math.Abs(f.lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(f.lu[r*n+col]); a > pmax {
				p, pmax = r, a
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if p != col {
			rp := f.lu[p*n : (p+1)*n]
			rc := f.lu[col*n : (col+1)*n]
			for i := range rp {
				rp[i], rc[i] = rc[i], rp[i]
			}
			f.piv[p], f.piv[col] = f.piv[col], f.piv[p]
			f.sign = -f.sign
		}
		pivVal := f.lu[col*n+col]
		for r := col + 1; r < n; r++ {
			m := f.lu[r*n+col] / pivVal
			f.lu[r*n+col] = m
			if m == 0 {
				continue
			}
			for c := col + 1; c < n; c++ {
				f.lu[r*n+c] -= m * f.lu[col*n+c]
			}
		}
	}
	return f, nil
}

// Solve solves A x = b for x given the factorization of A.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic("linalg: LU solve shape mismatch")
	}
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for r := 1; r < n; r++ {
		var s float64
		for c := 0; c < r; c++ {
			s += f.lu[r*n+c] * x[c]
		}
		x[r] -= s
	}
	// Back substitution with upper triangle.
	for r := n - 1; r >= 0; r-- {
		var s float64
		for c := r + 1; c < n; c++ {
			s += f.lu[r*n+c] * x[c]
		}
		x[r] = (x[r] - s) / f.lu[r*n+r]
	}
	return x
}

// SolveDense solves A X = B column-by-column and returns X.
func (f *LU) SolveDense(b *Dense) *Dense {
	if b.rows != f.n {
		panic("linalg: LU SolveDense shape mismatch")
	}
	x := NewDense(b.rows, b.cols)
	col := make([]float64, b.rows)
	for c := 0; c < b.cols; c++ {
		for r := 0; r < b.rows; r++ {
			col[r] = b.At(r, c)
		}
		sol := f.Solve(col)
		for r := 0; r < b.rows; r++ {
			x.Set(r, c, sol[r])
		}
	}
	return x
}

// Inverse returns A⁻¹ computed through the LU factorization.
func (d *Dense) Inverse() (*Dense, error) {
	f, err := d.Factorize()
	if err != nil {
		return nil, err
	}
	return f.SolveDense(Identity(d.rows)), nil
}
