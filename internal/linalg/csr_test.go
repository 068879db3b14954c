package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func randCSR(t testing.TB, rng *rand.Rand, rows, cols, nnz int) *CSR {
	t.Helper()
	entries := make([]Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		entries = append(entries, Triple{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()})
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewCSRBasic(t *testing.T) {
	m, err := NewCSR(2, 3, []Triple{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3},
		{0, 0, 4}, // duplicate sums to 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 || m.NNZ() != 3 {
		t.Fatalf("shape/nnz wrong: %dx%d nnz=%d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.At(0, 0) != 5 || m.At(0, 2) != 2 || m.At(1, 1) != 3 || m.At(1, 0) != 0 {
		t.Fatalf("At values wrong")
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[0] != 5 {
		t.Fatalf("Row(0) = %v %v", cols, vals)
	}
}

func TestNewCSRSumsDuplicatesInInputOrder(t *testing.T) {
	// 1e16+1 rounds back to 1e16, so the sum of these three depends on
	// the order they are added in: input order gives 0, any order that
	// cancels the large terms first gives 1.
	m, err := NewCSR(2, 3, []Triple{
		{0, 0, 1e16}, {0, 0, 1}, {0, 0, -1e16},
		// Row 1 arrives out of column order, so it is sorted first; the
		// sort must keep the duplicates of (1,0) in input order.
		{1, 2, 0.5}, {1, 0, 1e16}, {1, 2, 0.25}, {1, 0, 1}, {1, 1, 3}, {1, 0, -1e16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0 (input-order sum)", got)
	}
	cols, vals := m.Row(1)
	if !reflect.DeepEqual(cols, []int{0, 1, 2}) || !reflect.DeepEqual(vals, []float64{0, 3, 0.75}) {
		t.Errorf("Row(1) = %v %v, want [0 1 2] [0 3 0.75]", cols, vals)
	}
	m, err = NewCSR(1, 1, []Triple{{0, 0, 1e16}, {0, 0, -1e16}, {0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 1 {
		t.Errorf("reordered At(0,0) = %v, want 1", got)
	}
}

func TestNewCSRMatchesStableSortAssembly(t *testing.T) {
	// Reference: stable-sort the triples by (row, col) and sum each run of
	// duplicates in that order. NewCSR must agree bit for bit.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		entries := make([]Triple, rng.Intn(200))
		for i := range entries {
			entries[i] = Triple{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)))}
		}
		m, err := NewCSR(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		ref := append([]Triple(nil), entries...)
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].Row != ref[j].Row {
				return ref[i].Row < ref[j].Row
			}
			return ref[i].Col < ref[j].Col
		})
		var want []Triple
		for i := 0; i < len(ref); {
			e := Triple{ref[i].Row, ref[i].Col, 0}
			for ; i < len(ref) && ref[i].Row == e.Row && ref[i].Col == e.Col; i++ {
				e.Val += ref[i].Val
			}
			want = append(want, e)
		}
		var got []Triple
		for r := 0; r < rows; r++ {
			cs, vs := m.Row(r)
			for i := range cs {
				got = append(got, Triple{r, cs[i], vs[i]})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d entries, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i].Row != want[i].Row || got[i].Col != want[i].Col || math.Float64bits(got[i].Val) != math.Float64bits(want[i].Val) {
				t.Fatalf("iter %d: entry %d = %v, want %v", iter, i, got[i], want[i])
			}
		}
	}
}

func TestNewCSRErrors(t *testing.T) {
	if _, err := NewCSR(0, 2, nil); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := NewCSR(2, 2, []Triple{{2, 0, 1}}); err == nil {
		t.Error("out-of-range row should fail")
	}
	if _, err := NewCSR(2, 2, []Triple{{0, -1, 1}}); err == nil {
		t.Error("negative col should fail")
	}
}

func TestNewCSRFromRowsMatchesNewCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 30; iter++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		want := randCSR(t, rng, rows, cols, rng.Intn(80))
		rowPtr := append([]int(nil), want.rowPtr...)
		colIdx := append([]int(nil), want.colIdx...)
		vals := append([]float64(nil), want.vals...)
		got, err := NewCSRFromRows(rows, cols, rowPtr, colIdx, vals)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: NewCSRFromRows differs from NewCSR", iter)
		}
	}
}

func TestNewCSRFromRowsErrors(t *testing.T) {
	ok := func(rowPtr, colIdx []int, vals []float64) error {
		_, err := NewCSRFromRows(2, 3, rowPtr, colIdx, vals)
		return err
	}
	if err := ok([]int{0, 1, 3}, []int{2, 0, 1}, []float64{1, 2, 3}); err != nil {
		t.Fatalf("valid rows rejected: %v", err)
	}
	if _, err := NewCSRFromRows(0, 3, []int{0}, nil, nil); err == nil {
		t.Error("zero rows should fail")
	}
	for name, bad := range map[string]struct {
		rowPtr, colIdx []int
		vals           []float64
	}{
		"short rowPtr":        {[]int{0, 1}, []int{0}, []float64{1}},
		"empty rowPtr":        {nil, nil, nil},
		"rowPtr[0] != 0":      {[]int{1, 1, 1}, []int{0}, []float64{1}},
		"rowPtr short of nnz": {[]int{0, 1, 1}, []int{0, 1}, []float64{1, 2}},
		"vals length":         {[]int{0, 1, 2}, []int{0, 1}, []float64{1}},
		"not monotone":        {[]int{0, 2, 1}, []int{0}, []float64{1}},
		"unsorted row":        {[]int{0, 2, 2}, []int{1, 0}, []float64{1, 2}},
		"duplicate column":    {[]int{0, 2, 2}, []int{1, 1}, []float64{1, 2}},
		"column too large":    {[]int{0, 0, 1}, []int{3}, []float64{1}},
		"negative column":     {[]int{0, 1, 1}, []int{-1}, []float64{1}},
	} {
		if err := ok(bad.rowPtr, bad.colIdx, bad.vals); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := randCSR(t, rng, rows, cols, rng.Intn(60))
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(x)
		want := m.Dense().MulVec(x)
		if !vecAlmostEq(got, want, 1e-12) {
			t.Fatalf("MulVec mismatch: %v vs %v", got, want)
		}
	}
}

func TestMulVecTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 20; iter++ {
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(15)
		m := randCSR(t, rng, rows, cols, rng.Intn(50))
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, cols)
		m.MulVecTransTo(got, x)
		want := m.Transpose().MulVec(x)
		if !vecAlmostEq(got, want, 1e-12) {
			t.Fatalf("MulVecTrans mismatch")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randCSR(t, rng, 7, 11, 30)
	tt := m.Transpose().Transpose()
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			if m.At(r, c) != tt.At(r, c) {
				t.Fatalf("double transpose changed (%d,%d)", r, c)
			}
		}
	}
}

func TestColumnSums(t *testing.T) {
	m, err := NewCSR(2, 2, []Triple{{0, 0, 1}, {1, 0, 2}, {1, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.ColumnSums()
	if s[0] != 3 || s[1] != 4 {
		t.Fatalf("ColumnSums = %v, want [3 4]", s)
	}
}

func TestMulVecShapePanics(t *testing.T) {
	m, _ := NewCSR(2, 3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	m.MulVec(make([]float64, 2))
}
