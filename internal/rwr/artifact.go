package rwr

// ArtifactReader is the serving path's view of the precompute tier
// (internal/artifact.Tier): persisted per-source score vectors consulted
// between the cache and the iterative solver. The tier owns all matching
// logic — an engine binds key spaces to artifacts whose content
// fingerprints match its live state — so from here a read either serves a
// trusted vector or misses and the solve proceeds as before.
type ArtifactReader interface {
	// ReadVector returns a fresh (caller-owned) copy of the precomputed
	// score vector for (space, source), or false when nothing is bound for
	// the space or the source is not covered. A vector is the m-sweep
	// iterate of the walk from source, Float64bits-identical to its column
	// of ScoresSetBlockedCtx (hence to ScoresCtx) under the bound config,
	// so serving it never changes an answer.
	ReadVector(space uint64, source int) ([]float64, bool)
}

// artifactDiag is the Diagnostics attached to artifact-served vectors: no
// sweeps ran here, and a stored row is a completed blocked solve — the
// same m-sweep iterate ScoresSetBlockedCtx returns for its source.
func artifactDiag() Diagnostics { return Diagnostics{Converged: true} }

// readArtifact consults the tier for (space, q), rejecting any vector
// whose length disagrees with the solver's graph — the tier's bind-time
// shape check makes that unreachable in practice, but a wrong-length
// vector must never enter the pipeline or the cache.
func (s *Solver) readArtifact(art ArtifactReader, space uint64, q int) ([]float64, bool) {
	if art == nil {
		return nil, false
	}
	vec, ok := art.ReadVector(space, q)
	if !ok || len(vec) != s.n {
		return nil, false
	}
	return vec, true
}
