package rwr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ceps/internal/dblp"
)

// transitionHash is an FNV-64a digest of everything NewSolver derives from
// the graph: every stored entry of W̃ as (row, column, value bits) in
// storage order, then the reversibility certificate's X and ε and η bits
// (a single marker when the solver gives no certificate).
func transitionHash(s *Solver) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.n))
	put(uint64(s.trans.NNZ()))
	for r := 0; r < s.n; r++ {
		cols, vals := s.trans.Row(r)
		for i, c := range cols {
			put(uint64(r))
			put(uint64(c))
			put(math.Float64bits(vals[i]))
		}
	}
	if s.rev == nil {
		put(math.MaxUint64)
		return h.Sum64()
	}
	for _, x := range s.rev.x {
		put(math.Float64bits(x))
	}
	put(math.Float64bits(s.rev.eps))
	put(math.Float64bits(s.rev.eta))
	return h.Sum64()
}

// TestTransitionMatrixGolden pins the transition matrix and certificate
// bit for bit on the 4,000-node dblpgen substrate (scale 1) under Eq. 5,
// Eq. 10 at α = 0.5 and α = 1, and Eq. 20. The hashes were taken from the
// triple-list assembly NewSolver used before it filled W̃ row by row;
// every cached vector, artifact and golden answer rests on these bits.
func TestTransitionMatrixGolden(t *testing.T) {
	ds, err := dblp.Generate(dblp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		norm  NormKind
		alpha float64
		want  uint64
	}{
		{"eq5-column", NormColumn, 0, 0x4cff08803e7cd6ed},
		{"eq10-alpha0.5", NormDegreePenalized, 0.5, 0x46ed81eff818db24},
		{"eq10-alpha1", NormDegreePenalized, 1, 0x89891a16398065f9},
		{"eq20-symmetric", NormSymmetric, 0, 0x5704c628b2d2260f},
	} {
		cfg := DefaultConfig()
		cfg.Norm, cfg.Alpha = tc.norm, tc.alpha
		s, err := NewSolver(ds.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.rev == nil {
			t.Errorf("%s: no reversibility certificate", tc.name)
		}
		if got := transitionHash(s); got != tc.want {
			t.Errorf("%s: transition hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
