// Package score combines per-query RWR closeness scores into query-set
// scores (§4.2 of the paper): the AND query (Eq. 6), the OR query (Eq. 7),
// and the general K_softAND query (Eqs. 8–9) that subsumes both, plus the
// order-statistic variants of Appendix A (Eq. 21). It also computes the
// edge goodness scores of Eqs. 15–18 used by the ERatio evaluation metric.
//
// The probabilistic model: Q particles walk independently, particle i's
// steady-state probability of sitting at node j is r(i, j). The combined
// score r(Q, j, k) is the probability that at least k of the Q particles
// sit at j simultaneously — a Poisson-binomial tail, which Eq. 9 computes
// with an O(Q·k) recursion instead of the 2^Q enumeration.
package score

import (
	"fmt"
	"math"
)

// Combiner folds the per-query scores p = (r(1,j), …, r(Q,j)) of one node
// (or one edge) into a single combined score r(Q, j).
type Combiner interface {
	// Combine returns the combined score for one node's individual scores.
	// Implementations must not retain or modify p.
	Combine(p []float64) float64
	// String names the query type for logs and experiment tables.
	String() string
}

// AND scores a node by the probability that all Q particles meet there
// (Eq. 6): the product of the individual scores.
type AND struct{}

// Combine implements Combiner.
func (AND) Combine(p []float64) float64 {
	prod := 1.0
	for _, v := range p {
		prod *= v
	}
	return prod
}

func (AND) String() string { return "AND" }

// OR scores a node by the probability that at least one particle sits there
// (Eq. 7): 1 − ∏(1 − r(i,j)).
type OR struct{}

// Combine implements Combiner.
func (OR) Combine(p []float64) float64 {
	prod := 1.0
	for _, v := range p {
		prod *= 1 - v
	}
	return 1 - prod
}

func (OR) String() string { return "OR" }

// KSoftAND scores a node by the probability that at least K of the Q
// particles meet there (Eqs. 8–9). K is clamped to [1, Q] when combining,
// so K = 1 degenerates to OR and K = Q to AND — the special-case structure
// the paper points out.
type KSoftAND struct {
	K int
}

// Combine implements Combiner.
func (s KSoftAND) Combine(p []float64) float64 {
	return AtLeastK(p, s.K)
}

func (s KSoftAND) String() string { return fmt.Sprintf("%d_softAND", s.K) }

// AtLeastK returns the probability that at least k of the independent
// events with probabilities p occur — the meeting probability r(Q, j, k).
// k is clamped to [1, len(p)]. It runs the Eq. 9 recursion: processing the
// queries one at a time, it maintains the distribution of "how many of the
// particles seen so far are at the node".
func AtLeastK(p []float64, k int) float64 {
	q := len(p)
	if q == 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	if k > q {
		k = q
	}
	// f[c] = P[exactly c of the processed particles meet]; only counts up
	// to k matter, so cap the state at k and accumulate overflow in f[k]
	// meaning "at least k".
	f := make([]float64, k+1)
	f[0] = 1
	for _, pi := range p {
		for c := k; c >= 1; c-- {
			if c == k {
				f[c] = f[c] + f[c-1]*pi // once at k, stay at "at least k"
			} else {
				f[c] = f[c]*(1-pi) + f[c-1]*pi
			}
		}
		f[0] *= 1 - pi
	}
	return f[k]
}

// ExactlyK returns the probability that exactly k of the independent events
// with probabilities p occur. Exposed for tests and diagnostics.
func ExactlyK(p []float64, k int) float64 {
	q := len(p)
	if k < 0 || k > q {
		return 0
	}
	f := make([]float64, q+1)
	f[0] = 1
	for _, pi := range p {
		for c := q; c >= 1; c-- {
			f[c] = f[c]*(1-pi) + f[c-1]*pi
		}
		f[0] *= 1 - pi
	}
	return f[k]
}

// MinOrderStat is Appendix A Variant 2 for AND queries (Eq. 21): the
// minimum individual score. "The node j is important wrt the source
// queries iff there is at least some high probability for every particle
// to finally stay at node j."
type MinOrderStat struct{}

// Combine implements Combiner.
func (MinOrderStat) Combine(p []float64) float64 {
	m := math.Inf(1)
	for _, v := range p {
		if v < m {
			m = v
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

func (MinOrderStat) String() string { return "min-order-stat" }

// MaxOrderStat is the order-statistic variant of OR: the maximum individual
// score r^(1)(i, j).
type MaxOrderStat struct{}

// Combine implements Combiner.
func (MaxOrderStat) Combine(p []float64) float64 {
	m := 0.0
	for _, v := range p {
		if v > m {
			m = v
		}
	}
	return m
}

func (MaxOrderStat) String() string { return "max-order-stat" }

// KthOrderStat is the order-statistic variant of K_softAND: the k-th
// largest individual score r^(k)(i, j).
type KthOrderStat struct {
	K int
}

// Combine implements Combiner.
func (s KthOrderStat) Combine(p []float64) float64 {
	return KthLargest(p, s.K)
}

func (s KthOrderStat) String() string { return fmt.Sprintf("%d-th-order-stat", s.K) }

// KthLargest returns the k-th largest value of p (k clamped to [1, len(p)]).
// It is O(Q log Q) on a copied slice; Q is tiny (a handful of queries).
func KthLargest(p []float64, k int) float64 {
	q := len(p)
	if q == 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	if k > q {
		k = q
	}
	tmp := make([]float64, q)
	copy(tmp, p)
	// insertion sort descending — Q is small
	for i := 1; i < q; i++ {
		v := tmp[i]
		j := i - 1
		for j >= 0 && tmp[j] < v {
			tmp[j+1] = tmp[j]
			j--
		}
		tmp[j+1] = v
	}
	return tmp[k-1]
}

// CombineNodes applies the combiner column-wise to the individual-score
// matrix R (R[i][j] = r(q_i, j)) and returns the combined node scores
// r(Q, ·). AND, OR and K_softAND fold R into the nodes' state one query
// row at a time, so the inner loops stream contiguous rows; per node they
// perform Combine's operations in Combine's order, so every score equals
// the per-node Combine bit for bit. Other combiners call Combine per node.
func CombineNodes(R [][]float64, c Combiner) ([]float64, error) {
	if len(R) == 0 {
		return nil, fmt.Errorf("score: empty score matrix")
	}
	n := len(R[0])
	for i, row := range R {
		if len(row) != n {
			return nil, fmt.Errorf("score: ragged score matrix: row %d has %d entries, want %d", i, len(row), n)
		}
	}
	out := make([]float64, n)
	switch c := c.(type) {
	case AND:
		for j := range out {
			out[j] = 1
		}
		for _, row := range R {
			for j, v := range row {
				out[j] *= v
			}
		}
	case OR:
		for j := range out {
			out[j] = 1
		}
		for _, row := range R {
			for j, v := range row {
				out[j] *= 1 - v
			}
		}
		for j, prod := range out {
			out[j] = 1 - prod
		}
	case KSoftAND:
		atLeastKNodes(R, c.K, out)
	default:
		p := make([]float64, len(R))
		for j := range out {
			for i := range R {
				p[i] = R[i][j]
			}
			out[j] = c.Combine(p)
		}
	}
	return out, nil
}

// atLeastKBlock is how many nodes atLeastKNodes carries through the
// recursion at once: its k state rows of this length stay in cache.
const atLeastKBlock = 512

// atLeastKNodes stores AtLeastK(R[·][j], k) in out[j] for every node j. It
// runs the Eq. 9 recursion over blocks of nodes, holding each state count
// c < k as a row f[c] across the block and the "at least k" state in out,
// and per node updates the states in AtLeastK's order.
func atLeastKNodes(R [][]float64, k int, out []float64) {
	k = min(max(k, 1), len(R))
	f := make([][]float64, k+1)
	buf := make([]float64, k*atLeastKBlock)
	for lo := 0; lo < len(out); lo += atLeastKBlock {
		hi := min(lo+atLeastKBlock, len(out))
		for c := 0; c < k; c++ {
			f[c] = buf[c*atLeastKBlock : c*atLeastKBlock+hi-lo]
			clear(f[c])
		}
		f[k] = out[lo:hi]
		for j := range f[0] {
			f[0][j] = 1
		}
		for _, row := range R {
			p := row[lo:hi]
			for c := k; c >= 1; c-- {
				fc, fl := f[c][:len(p)], f[c-1][:len(p)]
				if c == k {
					for j, pi := range p {
						fc[j] = fc[j] + fl[j]*pi // once at k, stay at "at least k"
					}
				} else {
					for j, pi := range p {
						fc[j] = fc[j]*(1-pi) + fl[j]*pi
					}
				}
			}
			f0 := f[0][:len(p)]
			for j, pi := range p {
				f0[j] *= 1 - pi
			}
		}
	}
}
