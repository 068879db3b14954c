// Package artifact implements the persisted precompute tier: versioned
// on-disk files of per-source random-walk score vectors, produced offline
// by cmd/cepspre and memory-mapped at engine startup, so a cold query is
// one row read instead of a power iteration.
//
// This is the §6 pre-compute/memory trade-off made durable. The paper
// observes that materializing A = (I − c·W̃)⁻¹ makes every query
// "nearly real-time" but is "a heavy burden when N is big"; the runtime
// ScoreCache (internal/rwr) answers that burden incrementally, caching
// only sources queries actually ask about. Artifacts complete the
// picture from the other end: the burden is paid once, offline, within
// an explicit byte budget, and the result survives process restarts.
//
// Every artifact is a panel of m-sweep iterates: it covers the top-k
// sources of its (partition-union) graph by weighted degree, with
// k = min(N, budget / (8·N)), so a budget of 8·N² bytes or more covers
// every source. Each row is the blocked kernel's solve of its source,
// Float64bits-identical to what the serving path's own solver computes
// (ScoresSetBlockedCtx, hence ScoresCtx), so a vector read from an
// artifact never changes an answer. Uncovered sources miss the tier and
// fall through to the iterative solver.
//
// Artifacts are keyed by content fingerprints (graph, RWR config,
// partition, part set) rather than by the process-local identities the
// ScoreCache keys on, which is what lets a file written by one process
// be trusted by another. The Tier type performs that translation at
// engine startup and on every Reconfigure.
package artifact

import (
	"encoding/binary"
	"hash/fnv"
)

// Magic identifies an artifact file; the trailing digit is the format
// generation and changes whenever the layout does.
const Magic = "CEPSART1"

// Version is the current artifact format version, stored in every header.
const Version = 1

// headerSize is the fixed byte length of the on-disk header:
//
//	off  0  magic            [8]byte  "CEPSART1"
//	off  8  version          uint32
//	off 12  class            uint32   always classPanel
//	off 16  graph fp         uint64
//	off 24  config fp        uint64
//	off 32  partition fp     uint64
//	off 40  restart bits     uint64   Float64bits(1 − c), informational
//	off 48  n                uint32   nodes in the solved graph
//	off 52  nParts           uint32
//	off 56  nSources         uint32
//	off 60  (pad)            uint32
//	off 64  checksum         uint64   FNV-64a over header[0:64) + payload
//
// The payload starts at offset 72: nParts×uint32 part ids, nSources×uint32
// ascending source ids, zero padding to 8-byte alignment, then
// nSources×n float64 score rows, all little-endian.
const headerSize = 72

// IndexFile is the manifest cmd/cepspre writes next to the artifacts; the
// Store only loads files the index lists.
const IndexFile = "index.json"

// FileExt is the artifact file extension.
const FileExt = ".cpa"

// classPanel is the only header class word (and index "class" value) this
// build writes or reads. The word stays in the format so that a file of
// any other class — older builds wrote a dense class, word 1, whose rows
// were the closed-form inverse rather than the iterate — fails Open
// instead of being misread.
const (
	classPanel     = 2
	classPanelName = "panel"
)

// Key states everything an artifact's vectors depend on, in content
// (process-independent) terms: the graph, the walk configuration, and —
// for partition-union artifacts — the partition and the part set whose
// union was solved. A full-graph artifact has PartitionFP 0 and no Parts.
type Key struct {
	GraphFP     uint64
	ConfigFP    uint64
	PartitionFP uint64
	Parts       []int
}

// ID collapses the key into the 64-bit hash used as the artifact's file
// name; Store.Find still verifies full field equality after an ID match.
func (k Key) ID() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(k.GraphFP)
	put(k.ConfigFP)
	put(k.PartitionFP)
	put(uint64(len(k.Parts)))
	for _, p := range k.Parts {
		put(uint64(p))
	}
	return h.Sum64()
}

// Equal reports full field equality, including the part set.
func (k Key) Equal(o Key) bool {
	if k.GraphFP != o.GraphFP || k.ConfigFP != o.ConfigFP || k.PartitionFP != o.PartitionFP || len(k.Parts) != len(o.Parts) {
		return false
	}
	for i := range k.Parts {
		if k.Parts[i] != o.Parts[i] {
			return false
		}
	}
	return true
}
