package core

import (
	"ceps/internal/artifact"
	"ceps/internal/graph"
	"ceps/internal/partition"
	"ceps/internal/rwr"
)

// BindArtifacts runs the engine's bind pass: it maps the runtime cache key
// spaces the current graph/config/partition state will solve under onto
// the content-keyed artifacts in the tier's store. The full-graph space
// binds to the artifact keyed by (graph, config) alone; with partition
// state attached, each single-part union space binds to the artifact keyed
// by (graph, config, partition, [part]). Multi-part unions are served from
// the iterative path — precomputing every part subset would be
// combinatorial, and single-node queries (the common cold case) always hit
// exactly one part.
//
// It returns how many spaces were bound. When the pass probed artifacts
// the store holds but none matched — built for a different graph, config,
// or partition — the tier logs a bypass note once so the mismatch is
// visible. Part artifacts are probed only once partition state is
// attached, so an engine that gets its partition after construction does
// not report its part-only directory as a mismatch first.
func BindArtifacts(t *artifact.Tier, g *graph.Graph, graphFP uint64, cfg rwr.Config, pt *Partitioned) int {
	if t == nil {
		return 0
	}
	cfgFP := cfg.Fingerprint()
	bound := 0
	if t.Bind(fullGraphSpace(cfg), artifact.Key{GraphFP: graphFP, ConfigFP: cfgFP}, g.N()) {
		bound++
	}
	partitioned := pt != nil && pt.Partition != nil
	if partitioned {
		partFP := pt.Partition.Fingerprint()
		for p := 0; p < pt.Partition.K; p++ {
			key := artifact.Key{GraphFP: graphFP, ConfigFP: cfgFP, PartitionFP: partFP, Parts: []int{p}}
			if t.Bind(unionSpace(cfg, pt.id, []int{p}), key, partSize(pt.Partition, p)) {
				bound++
			}
		}
	}
	if bound == 0 && t.Probes(partitioned) {
		t.NoteBypass("no artifact matches the live graph/config/partition fingerprints")
	}
	return bound
}

// partSize returns the node count of part p, tolerating a Result whose
// PartSizes slice was not filled in (hand-built literals).
func partSize(pt *partition.Result, p int) int {
	if p < len(pt.PartSizes) {
		return pt.PartSizes[p]
	}
	n := 0
	for _, a := range pt.Assign {
		if a == p {
			n++
		}
	}
	return n
}
