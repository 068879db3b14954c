package linalg

import "testing"

func TestPanelBasicOps(t *testing.T) {
	p := NewPanel(3, 2)
	if p.Rows() != 3 || p.Cols() != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", p.Rows(), p.Cols())
	}
	p.Set(1, 0, 3)
	p.Set(2, 1, -1)
	if p.At(1, 0) != 3 || p.At(2, 1) != -1 || p.At(0, 0) != 0 {
		t.Fatalf("At values wrong: %v %v %v", p.At(1, 0), p.At(2, 1), p.At(0, 0))
	}
	col := p.Col(0)
	if len(col) != 3 || col[1] != 3 {
		t.Fatalf("Col(0) = %v", col)
	}
	col[1] = 99 // Col must be a copy
	if p.At(1, 0) != 3 {
		t.Fatal("Col returned a view, want a copy")
	}
	p.SetCol(1, []float64{1, 2, 3})
	if p.At(0, 1) != 1 || p.At(2, 1) != 3 {
		t.Fatalf("SetCol wrong: %v %v", p.At(0, 1), p.At(2, 1))
	}
	p.Zero()
	for r := 0; r < 3; r++ {
		for c := 0; c < 2; c++ {
			if p.At(r, c) != 0 {
				t.Fatalf("Zero left (%d,%d) = %v", r, c, p.At(r, c))
			}
		}
	}
}

func TestPanelReset(t *testing.T) {
	p := NewPanel(4, 3) // capacity 12
	if !p.Reset(6, 2) {
		t.Fatal("Reset(6,2) should fit in capacity 12")
	}
	if p.Rows() != 6 || p.Cols() != 2 {
		t.Fatalf("shape after Reset = %dx%d, want 6x2", p.Rows(), p.Cols())
	}
	if p.Reset(5, 3) {
		t.Fatal("Reset(5,3) = 15 should exceed capacity 12")
	}
	if p.Rows() != 6 || p.Cols() != 2 {
		t.Fatal("failed Reset must leave the panel unchanged")
	}
	if p.Reset(0, 2) || p.Reset(2, -1) {
		t.Fatal("degenerate shapes must be rejected")
	}
}
