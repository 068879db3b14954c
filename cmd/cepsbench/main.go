// Command cepsbench regenerates every table and figure of the paper's
// evaluation section (§7) and prints the same rows/series the paper
// reports. See EXPERIMENTS.md for the recorded paper-vs-measured summary.
//
// Usage:
//
//	cepsbench [-scale f] [-trials n] [-seed s] [-exp id[,id...]]
//
// Scale 1.0 generates ~4K authors (fast); -scale 80 approaches the paper's
// 315K-author DBLP graph. Experiment ids: datastats, fig2, fig4, fig5,
// fig6, speedup, skew, replace, inject, retrieval, scaling, steiner, all.
// The serving stack's performance is measured by perfbench, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ceps/internal/experiments"
	"ceps/internal/report"
)

func main() {
	var (
		scale   = flag.Float64("scale", 1.0, "dataset scale (1.0 ≈ 4K authors, 80 ≈ paper's 315K)")
		trials  = flag.Int("trials", 5, "random query draws averaged per data point")
		seed    = flag.Int64("seed", 1, "random seed for dataset and query sampling")
		exps    = flag.String("exp", "all", "comma-separated experiment ids: datastats,fig2,fig4,fig5,fig6,speedup,skew,replace,inject,retrieval,scaling,steiner,all")
		iters   = flag.Int("rwr-iters", 50, "RWR power-iteration count m")
		htmlOut = flag.String("html", "", "also write the regenerated figures as a self-contained HTML report")
		jsonOut = flag.String("json", "", "also write every experiment's raw points as JSON")

		replaceTeams = flag.Int("replace-teams", 24, "replace: held-out co-author recovery trials")
		replaceSize  = flag.Int("replace-team-size", 4, "replace: team size per trial")
		replaceOut   = flag.String("replace-out", "", "replace: also write the two-arm result as JSON to this file")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]

	fmt.Printf("cepsbench: generating dataset (scale %.2f, seed %d)...\n", *scale, *seed)
	t0 := time.Now()
	s, err := experiments.NewSetup(*scale, *seed, *trials)
	if err != nil {
		fatal(err)
	}
	s.Base.RWR.Iterations = *iters
	g := s.Dataset.Graph
	fmt.Printf("dataset: %d authors, %d edges, %d papers (generated in %v)\n\n",
		g.N(), g.M(), s.Dataset.PaperCount, time.Since(t0).Round(time.Millisecond))

	run := func(id string, fn func() error) {
		if !all && !want[id] {
			return
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", id)
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Printf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	var results map[string]any
	if *jsonOut != "" {
		results = map[string]any{
			"scale": *scale, "seed": *seed, "trials": *trials,
			"nodes": g.N(), "edges": g.M(), "papers": s.Dataset.PaperCount,
		}
	}
	record := func(id string, v any) {
		if results != nil {
			results[id] = v
		}
	}

	var page *report.Page
	if *htmlOut != "" {
		page = &report.Page{
			Title: "Center-Piece Subgraphs: regenerated evaluation",
			Subtitle: fmt.Sprintf("synthetic DBLP, %d authors / %d edges, %d trials, seed %d",
				g.N(), g.M(), *trials, *seed),
		}
	}

	run("datastats", func() error {
		stats := experiments.DataStats(s)
		record("datastats", stats)
		stats.Render(os.Stdout)
		fmt.Println()
		if page != nil {
			page.Sections = append(page.Sections, report.Section{
				Title: "Dataset structural profile",
				Prose: "The synthetic co-authorship graph's structure class: heavy-tailed degrees, local clustering, one giant component.",
				Table: experiments.DataStatsTable(stats),
			})
		}
		return nil
	})
	run("fig2", func() error {
		r, err := experiments.Fig2(s, 4)
		if err != nil {
			return err
		}
		record("fig2", r)
		experiments.RenderFig2(os.Stdout, r)
		if page != nil {
			page.Sections = append(page.Sections, report.Section{
				Title: "Fig 2: delivered-current baseline vs CePS",
				Prose: "The baseline's output depends on query order (overlap < 1); CePS is order-invariant and selects more strongly connected intermediates.",
				Table: experiments.Fig2Table(r),
			})
		}
		return nil
	})
	run("fig4", func() error {
		pts, err := experiments.Fig4(s, []int{1, 2, 3, 4, 5}, []int{10, 20, 30, 40, 50, 60, 80, 100})
		if err != nil {
			return err
		}
		record("fig4", pts)
		experiments.RenderFig4(os.Stdout, pts)
		if page != nil {
			a, b := experiments.Fig4Charts(pts)
			page.Sections = append(page.Sections,
				report.Section{Title: "Fig 4(a): mean NRatio vs budget", Chart: a,
					Prose: "More budget captures more goodness mass; more queries concentrate the mass (the paper's key Fig. 4 observation)."},
				report.Section{Title: "Fig 4(b): mean ERatio vs budget", Chart: b})
		}
		return nil
	})
	run("fig5", func() error {
		pts, err := experiments.Fig5(s, []int{2, 3}, []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, 20)
		if err != nil {
			return err
		}
		record("fig5", pts)
		experiments.RenderFig5(os.Stdout, pts)
		if page != nil {
			a, b := experiments.Fig5Charts(pts)
			page.Sections = append(page.Sections,
				report.Section{Title: "Fig 5(a): mean NRatio vs normalization α", Chart: a,
					Prose: "The α parametric study of §7.3. See EXPERIMENTS.md: on this synthetic family the direction differs from the paper's DBLP result."},
				report.Section{Title: "Fig 5(b): mean ERatio vs normalization α", Chart: b})
		}
		return nil
	})
	run("fig6", func() error {
		pts, err := experiments.Fig6(s, []int{2, 5}, []int{1, 2, 5, 10, 20, 50}, 20)
		if err != nil {
			return err
		}
		record("fig6", pts)
		experiments.RenderFig6(os.Stdout, pts)
		if page != nil {
			chart, table := experiments.Fig6Chart(pts)
			page.Sections = append(page.Sections, report.Section{
				Title: "Fig 6: Fast CePS speedup vs quality",
				Prose: "Response time falls steeply with the number of pre-partitions while RelRatio stays near 1 (partitions = 1 is the full-graph run).",
				Chart: chart, Table: table,
			})
		}
		return nil
	})
	run("speedup", func() error {
		pts, err := experiments.Speedup(s, []int{2, 3, 5}, 20, 20)
		if err != nil {
			return err
		}
		record("speedup", pts)
		experiments.RenderSpeedup(os.Stdout, pts)
		if page != nil {
			tiles, table := experiments.SpeedupTiles(pts)
			page.Tiles = append(page.Tiles, tiles...)
			page.Sections = append(page.Sections, report.Section{
				Title: "Headline: Fast CePS speedup (paper: ~6:1 at ~90%)",
				Table: table,
			})
		}
		return nil
	})
	run("skew", func() error {
		pts, err := experiments.Skew(s, 5)
		if err != nil {
			return err
		}
		record("skew", pts)
		experiments.RenderSkew(os.Stdout, pts)
		return nil
	})
	run("replace", func() error {
		r, err := experiments.ReplaceEval(s, *replaceTeams, *replaceSize)
		if err != nil {
			return err
		}
		record("replace", r)
		experiments.RenderReplaceEval(os.Stdout, r)
		if *replaceOut != "" {
			if err := writeResultJSON(*replaceOut, r); err != nil {
				return err
			}
			fmt.Printf("replace results written to %s\n", *replaceOut)
		}
		if page != nil {
			page.Sections = append(page.Sections, report.Section{
				Title: "Subteam replacement: held-out co-author recovery",
				Prose: "Each trial departs one author of a real substrate paper and holds out another co-author of the same paper; the replace ranker (walk proximity + co-authorship kernel) and the plain center-piece scorer rank the identical two-hop pool.",
				Table: experiments.ReplaceEvalTable(r),
			})
		}
		return nil
	})
	run("inject", func() error {
		pts, err := experiments.Inject(s, 3, 20, []float64{5, 2, 1, 0.5, 0.1})
		if err != nil {
			return err
		}
		record("inject", pts)
		experiments.RenderInject(os.Stdout, pts)
		return nil
	})
	run("retrieval", func() error {
		pts, err := experiments.Retrieval(s, 3, []int{10, 20, 50})
		if err != nil {
			return err
		}
		record("retrieval", pts)
		experiments.RenderRetrieval(os.Stdout, pts)
		return nil
	})
	run("scaling", func() error {
		pts, err := experiments.Scaling(s, []float64{0.5, 1, 2, 4}, 2, 20, 20)
		if err != nil {
			return err
		}
		record("scaling", pts)
		experiments.RenderScaling(os.Stdout, pts)
		if page != nil {
			chart, table := experiments.ScalingChartAndTable(pts)
			page.Sections = append(page.Sections, report.Section{
				Title: "Scaling: full vs Fast CePS response time",
				Chart: chart, Table: table,
			})
		}
		return nil
	})
	writeJSON := func() {
		if results == nil {
			return
		}
		if err := writeResultJSON(*jsonOut, results); err != nil {
			fatal(err)
		}
		fmt.Printf("JSON results written to %s\n", *jsonOut)
	}
	defer writeJSON()

	writeHTML := func() {
		if page == nil {
			return
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			fatal(err)
		}
		if err := page.Render(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
	defer writeHTML()

	run("steiner", func() error {
		var pts []*experiments.SteinerPoint
		for _, q := range []int{2, 3, 4} {
			p, err := experiments.Steiner(s, q)
			if err != nil {
				return err
			}
			pts = append(pts, p)
		}
		record("steiner", pts)
		experiments.RenderSteiner(os.Stdout, pts)
		return nil
	})
}

// writeResultJSON writes v as indented JSON.
func writeResultJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cepsbench:", err)
	os.Exit(1)
}
