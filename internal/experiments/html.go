package experiments

import (
	"fmt"
	"sort"
	"time"

	"ceps/internal/graphstat"
	"ceps/internal/report"
)

// This file adapts experiment results into report charts and tables so
// cepsbench can emit a self-contained HTML page of the regenerated
// figures (cepsbench -html). Charts keep one series per query count —
// identity — in fixed palette order.

// Fig4Charts builds the two Fig. 4 panels.
func Fig4Charts(pts []Fig4Point) (nratio, eratio *report.LineChart) {
	nratio = &report.LineChart{Title: "Fig 4(a): mean NRatio vs budget", XLabel: "budget", YLabel: "NRatio", YMax: 1}
	eratio = &report.LineChart{Title: "Fig 4(b): mean ERatio vs budget", XLabel: "budget", YLabel: "ERatio", YMax: 1}
	budgets, qs := fig4Axes(pts)
	lookup := make(map[[2]int]Fig4Point, len(pts))
	for _, p := range pts {
		lookup[[2]int{p.Q, p.Budget}] = p
	}
	for _, q := range qs {
		sn, se := report.Series{Name: fmt.Sprintf("Q=%d", q)}, report.Series{Name: fmt.Sprintf("Q=%d", q)}
		for _, b := range budgets {
			p := lookup[[2]int{q, b}]
			sn.Points = append(sn.Points, report.XY{X: float64(b), Y: p.NRatio})
			se.Points = append(se.Points, report.XY{X: float64(b), Y: p.ERatio})
		}
		nratio.Series = append(nratio.Series, sn)
		eratio.Series = append(eratio.Series, se)
	}
	return nratio, eratio
}

// Fig5Charts builds the two Fig. 5 panels.
func Fig5Charts(pts []Fig5Point) (nratio, eratio *report.LineChart) {
	nratio = &report.LineChart{Title: "Fig 5(a): mean NRatio vs normalization α", XLabel: "alpha", YLabel: "NRatio", YMax: 1}
	eratio = &report.LineChart{Title: "Fig 5(b): mean ERatio vs normalization α", XLabel: "alpha", YLabel: "ERatio", YMax: 1}
	alphas, qs := fig5Axes(pts)
	lookup := make(map[string]Fig5Point, len(pts))
	key := func(q int, a float64) string { return fmt.Sprintf("%d/%.3f", q, a) }
	for _, p := range pts {
		lookup[key(p.Q, p.Alpha)] = p
	}
	for _, q := range qs {
		sn, se := report.Series{Name: fmt.Sprintf("Q=%d", q)}, report.Series{Name: fmt.Sprintf("Q=%d", q)}
		for _, a := range alphas {
			p := lookup[key(q, a)]
			sn.Points = append(sn.Points, report.XY{X: a, Y: p.NRatio})
			se.Points = append(se.Points, report.XY{X: a, Y: p.ERatio})
		}
		nratio.Series = append(nratio.Series, sn)
		eratio.Series = append(eratio.Series, se)
	}
	return nratio, eratio
}

// Fig6Chart builds the Fig. 6(b) panel (response time vs partitions, log-x)
// and the Fig. 6(a) table (RelRatio vs response time per partition count).
func Fig6Chart(pts []Fig6Point) (*report.LineChart, *report.Table) {
	chart := &report.LineChart{
		Title:  "Fig 6(b): mean response time vs partitions",
		XLabel: "partitions", YLabel: "response (ms)", XLog: true,
	}
	qset := map[int]bool{}
	for _, p := range pts {
		qset[p.Q] = true
	}
	var qs []int
	for q := range qset {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	for _, q := range qs {
		s := report.Series{Name: fmt.Sprintf("Q=%d", q)}
		for _, p := range pts {
			if p.Q == q {
				s.Points = append(s.Points, report.XY{X: float64(p.Partitions), Y: ms(p.Response)})
			}
		}
		chart.Series = append(chart.Series, s)
	}
	table := &report.Table{Headers: []string{"Q", "partitions", "response (ms)", "RelRatio"}}
	for _, p := range pts {
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", p.Q),
			fmt.Sprintf("%d", p.Partitions),
			fmt.Sprintf("%.2f", ms(p.Response)),
			fmt.Sprintf("%.4f", p.RelRatio),
		})
	}
	return chart, table
}

// SpeedupTiles builds the headline stat tiles and the detail table.
func SpeedupTiles(pts []SpeedupPoint) ([]report.StatTile, *report.Table) {
	var tiles []report.StatTile
	table := &report.Table{Headers: []string{"Q", "partitions", "full (ms)", "fast (ms)", "speedup", "RelRatio"}}
	for _, p := range pts {
		tiles = append(tiles, report.StatTile{
			Label:   fmt.Sprintf("speedup, Q=%d", p.Q),
			Value:   fmt.Sprintf("%.1fx", p.Speedup),
			Context: fmt.Sprintf("RelRatio %.3f at p=%d", p.RelRatio, p.Partitions),
		})
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", p.Q), fmt.Sprintf("%d", p.Partitions),
			fmt.Sprintf("%.2f", ms(p.FullTime)), fmt.Sprintf("%.2f", ms(p.FastTime)),
			fmt.Sprintf("%.1fx", p.Speedup), fmt.Sprintf("%.4f", p.RelRatio),
		})
	}
	return tiles, table
}

// Fig2Table renders the baseline comparison.
func Fig2Table(r *Fig2Result) *report.Table {
	return &report.Table{
		Headers: []string{"metric", "delivered current", "CePS"},
		Rows: [][]string{
			{"order-swap node overlap (Jaccard)", fmt.Sprintf("%.4f", r.CurrentOrderOverlap), fmt.Sprintf("%.4f", r.CePSOrderOverlap)},
			{"intermediate connections/node", fmt.Sprintf("%.3f", r.CurrentConnections), fmt.Sprintf("%.3f", r.CePSConnections)},
			{"intermediate weighted strength", fmt.Sprintf("%.3f", r.CurrentStrength), fmt.Sprintf("%.3f", r.CePSStrength)},
		},
	}
}

// ScalingChartAndTable plots full vs fast response time against graph size.
func ScalingChartAndTable(pts []ScalingPoint) (*report.LineChart, *report.Table) {
	chart := &report.LineChart{
		Title: "Scaling: response time vs graph size", XLabel: "nodes", YLabel: "response (ms)",
	}
	full := report.Series{Name: "full CePS"}
	fast := report.Series{Name: "Fast CePS"}
	table := &report.Table{Headers: []string{"nodes", "edges", "full (ms)", "fast (ms)", "speedup", "RelRatio"}}
	for _, p := range pts {
		full.Points = append(full.Points, report.XY{X: float64(p.Nodes), Y: ms(p.Full)})
		fast.Points = append(fast.Points, report.XY{X: float64(p.Nodes), Y: ms(p.Fast)})
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", p.Nodes), fmt.Sprintf("%d", p.Edges),
			fmt.Sprintf("%.2f", ms(p.Full)), fmt.Sprintf("%.2f", ms(p.Fast)),
			fmt.Sprintf("%.1fx", p.Speedup), fmt.Sprintf("%.4f", p.RelRatio),
		})
	}
	chart.Series = []report.Series{full, fast}
	return chart, table
}

// DataStatsTable renders the structural profile.
func DataStatsTable(s graphstat.Summary) *report.Table {
	return &report.Table{
		Headers: []string{"property", "value"},
		Rows: [][]string{
			{"nodes", fmt.Sprintf("%d", s.Nodes)},
			{"edges", fmt.Sprintf("%d", s.Edges)},
			{"mean / max degree", fmt.Sprintf("%.2f / %d", s.MeanDegree, s.MaxDegree)},
			{"degree p50 / p90 / p99", fmt.Sprintf("%d / %d / %d", s.DegreeP50, s.DegreeP90, s.DegreeP99)},
			{"power-law tail α (Hill)", fmt.Sprintf("%.2f (x_min %d)", s.TailExponent, s.TailXMin)},
			{"clustering global / mean local", fmt.Sprintf("%.3f / %.3f", s.GlobalClustering, s.MeanLocalClustering)},
			{"degree assortativity", fmt.Sprintf("%+.3f", s.Assortativity)},
			{"components (giant share)", fmt.Sprintf("%d (%.1f%%)", s.Components, 100*s.GiantShare)},
		},
	}
}

// ReplaceEvalTable renders the held-out co-author recovery comparison.
func ReplaceEvalTable(r *ReplaceEvalResult) *report.Table {
	t := &report.Table{
		Headers: []string{"arm", "MRR", "hits@1", "hits@5", "hits@10", "mean rank"},
	}
	for _, a := range []ReplaceArm{r.Replace, r.Centerpiece} {
		t.Rows = append(t.Rows, []string{
			a.Name,
			fmt.Sprintf("%.3f", a.MRR),
			fmt.Sprintf("%d/%d", a.Hits1, r.Teams),
			fmt.Sprintf("%d/%d", a.Hits5, r.Teams),
			fmt.Sprintf("%d/%d", a.Hits10, r.Teams),
			fmt.Sprintf("%.1f", a.MeanRank),
		})
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
