package main

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"ceps"
	"ceps/internal/core"
)

// warm-centerpiece: full-graph CePS over a large substrate with every
// repository author's score vector cached during set-up. Step 1 is a cache
// read, so Steps 2–3 (score, extract) and the engine funnel are the whole
// query; the solver does almost no work.
const (
	warmScale   = 4    // ~16k authors
	warmStream  = 4096 // distinct requests, cycled
	warmZipfS   = 1.2  // popularity skew over the repository
	warmSample  = 32   // first window requests re-checked against the plain pipeline
	warmQuality = 256  // first window requests whose NRatio forms answer_quality
)

var warmCenterpiece = workload{
	name: "warm-centerpiece", clients: 2, tailPct: 99, root: "engine.do",
	setup: setupWarm,
}

// cepsRequest is one CePS query: its query set and K_softAND coefficient
// (0 is an AND query, 1 an OR query).
type cepsRequest struct {
	queries []int
	k       int
}

func setupWarm(ctx context.Context, o options, ph *phases) (*instance, error) {
	ds, err := generate(ph, warmScale)
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	var repo []int
	for _, r := range ds.Repository {
		repo = append(repo, r...)
	}
	// Every request draws from the repository, so its vectors are the whole
	// working set; the budget holds them twice over.
	budget := int64(2 * len(repo) * 8 * g.N())
	var eng *ceps.Engine
	if err := ph.run("ceps.new_engine", func() (err error) {
		eng, err = ceps.NewEngine(g, ceps.WithCache(budget))
		if err == nil {
			err = eng.Prepare()
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := ph.run("warmup", func() error {
		return forEach((len(repo)+3)/4, runtime.GOMAXPROCS(0), func(j int) error {
			_, err := eng.Do(ctx, repo[4*j:min(4*j+4, len(repo))])
			return err
		})
	}); err != nil {
		return nil, err
	}

	reqs := warmRequests(o.seed, repo)
	cfg := eng.Config()
	kept := make([]*ceps.Result, warmSample)
	nratio := make([]float64, warmQuality)
	inst := &instance{eng: eng, nodes: g.N(), edges: g.M(), close: func() { eng.Close() }}
	inst.send = func(ctx context.Context, i int) observation {
		r := reqs[i%len(reqs)]
		start := time.Now()
		res, err := eng.Do(ctx, r.queries, ceps.WithK(r.k))
		ob := cepsObservation(start, time.Now(), res, err)
		if res != nil && i < warmQuality {
			nratio[i] = res.NRatio()
		}
		if res != nil && i < warmSample {
			kept[i] = res
		}
		return ob
	}
	inst.check = func(ctx context.Context, obs []observation, rp *replay) (checkResult, error) {
		var ck checkResult
		verdict := make([]int, warmSample) // 0 unchecked, 1 right, 2 wrong
		err := forEach(warmQuality, runtime.GOMAXPROCS(0), func(j int) error {
			r := reqs[j]
			qcfg := cfg
			qcfg.K = r.k
			answered := j < len(obs) && obs[j].err == nil
			if j >= warmSample && answered {
				return nil
			}
			plain, err := core.CePSCtx(ctx, g, r.queries, qcfg)
			if err != nil {
				return err
			}
			if !answered {
				// Quality covers a fixed prefix of the stream: a request the
				// window did not answer is scored on the plain pipeline's
				// answer, which the check shows is the engine's.
				nratio[j] = plain.NRatio()
				return nil
			}
			res := kept[j]
			if relaxed(res) {
				return nil
			}
			ok := sameAnswer(res, plain, 0)
			rok, err := replayCePS(ctx, res, qcfg, nil, 0, rp, uint64(j)+1)
			if err != nil {
				return err
			}
			verdict[j] = 1
			if !ok || !rok {
				verdict[j] = 2
			}
			return nil
		})
		for _, v := range verdict {
			if v > 0 {
				ck.checked++
			}
			if v == 2 {
				ck.wrong++
			}
		}
		for _, v := range nratio {
			ck.quality += v / warmQuality
		}
		return ck, err
	}
	return inst, nil
}

// warmRequests draws the stream: query sets of 2–4 repository authors,
// picked Zipf-skewed over the repository's own order (its most prolific
// authors are the most queried). Query sizes and types cycle so every run
// holds the same mix: Q = 2, 3, 4 in turn, and per size AND, OR and
// K_softAND (k = 2 where 1 < k < Q) in turn. The seed draws only the
// members.
func warmRequests(seed int64, repo []int) []cepsRequest {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, warmZipfS, 1, uint64(len(repo)-1))
	reqs := make([]cepsRequest, warmStream)
	for i := range reqs {
		q := 2 + i%3
		set := make([]int, 0, q)
		for len(set) < q {
			if a := repo[zipf.Uint64()]; !slices.Contains(set, a) {
				set = append(set, a)
			}
		}
		k := 0 // AND
		switch (i / 3) % 3 {
		case 1:
			k = 1 // OR
		case 2:
			if q > 2 {
				k = 2
			}
		}
		reqs[i] = cepsRequest{queries: set, k: k}
	}
	return reqs
}

// substrateSeed generates every workload's substrate (and partition). The
// run's --seed draws only the request stream, so runs on different seeds
// differ in their requests, not in the graph they serve: the graph is the
// deployment, the stream is the sample.
const substrateSeed = 1

// generate builds the dblp substrate at scale.
func generate(ph *phases, scale float64) (*ceps.Dataset, error) {
	var ds *ceps.Dataset
	err := ph.run("dblp.generate", func() (err error) {
		cfg := ceps.ScaleDBLP(ceps.DefaultDBLPConfig(), scale)
		cfg.Seed = substrateSeed
		ds, err = ceps.GenerateDBLP(cfg)
		return err
	})
	return ds, err
}

// relaxed reports whether the resilience layer answered at relaxed
// tolerance, so the answer cannot match the plain pipeline's. The engine
// marks such an answer "relaxed_tol" even when it also took the full-graph
// fallback, so the mode tells, not Fallback.
func relaxed(res *ceps.Result) bool {
	return res.Degraded != nil && res.Degraded.Mode == "relaxed_tol"
}

// cepsObservation keeps what the harness needs of one Engine.Do call.
func cepsObservation(start, end time.Time, res *ceps.Result, err error) observation {
	ob := observation{start: start, end: end, err: err}
	if res == nil {
		return ob
	}
	st := res.Stages
	ob.stages = []stage{{"partition", st.Partition}, {"solve", st.Solve}, {"combine", st.Combine}, {"extract", st.Extract}}
	ob.degraded = relaxed(res)
	ob.fallback = res.Fallback != nil
	ob.sources = len(res.Queries)
	ob.sweeps = st.SolveSweeps
	if res.ToOrig != nil {
		ob.unionN = res.WorkGraph.N()
	}
	ob.coalesceW, ob.coalesceWt = st.CoalescePanelWidth, st.CoalesceWait
	if ex := res.Extraction; ex != nil {
		ob.destinations, ob.paths = len(ex.Destinations), ex.PathsFound
	}
	if res.Subgraph != nil {
		ob.subgraphNodes = len(res.Subgraph.Nodes)
	}
	return ob
}
