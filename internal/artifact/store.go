package artifact

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Artifact is one loaded (usually memory-mapped) precompute file. All
// fields are immutable after load, so an Artifact is safe for concurrent
// readers without locking.
type Artifact struct {
	// File is the file name within the store directory.
	File string
	// Key is the content identity the rows were solved under.
	Key Key
	// N is the node count of the solved (union) graph; every row has N
	// scores.
	N int
	// Sources lists the covered source ids (local to the union graph), in
	// ascending order.
	Sources []int
	// Restart is 1 − c at build time (informational; the config
	// fingerprint is what actually gates a match).
	Restart float64

	data   []byte // whole file: header + payload
	rowOff int    // byte offset of row 0
	mapped bool
}

// Covers reports whether the artifact stores a row for the given source.
func (a *Artifact) Covers(source int) bool {
	_, ok := a.rowIndex(source)
	return ok
}

// rowIndex binary-searches the ascending source list.
func (a *Artifact) rowIndex(source int) (int, bool) {
	i := sort.SearchInts(a.Sources, source)
	if i < len(a.Sources) && a.Sources[i] == source {
		return i, true
	}
	return 0, false
}

// Row returns a fresh copy of the score vector for source, or false when
// the source is not covered. The copy decodes straight out of the mapping;
// callers own the result.
func (a *Artifact) Row(source int) ([]float64, bool) {
	i, ok := a.rowIndex(source)
	if !ok {
		return nil, false
	}
	out := make([]float64, a.N)
	off := a.rowOff + i*a.N*8
	raw := a.data[off : off+a.N*8]
	for j := range out {
		out[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
	}
	return out, true
}

// Bytes is the on-disk (and mapped) size of the artifact file.
func (a *Artifact) Bytes() int64 { return int64(len(a.data)) }

func (a *Artifact) close() error {
	err := unmapFile(a.data, a.mapped)
	a.data = nil
	return err
}

// Store is a directory of loaded artifacts, opened once at engine (or
// verifier) startup. It is immutable after Open and safe for concurrent
// readers.
type Store struct {
	dir  string
	arts []*Artifact
	byID map[uint64]*Artifact
}

// Dir returns the directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of loaded artifacts.
func (s *Store) Len() int { return len(s.arts) }

// Bytes returns the total mapped size across artifacts.
func (s *Store) Bytes() int64 {
	var total int64
	for _, a := range s.arts {
		total += a.Bytes()
	}
	return total
}

// Artifacts returns the loaded artifacts in index order. The slice is
// shared; callers must not modify it.
func (s *Store) Artifacts() []*Artifact { return s.arts }

// Find returns the artifact matching key with full field equality.
func (s *Store) Find(key Key) (*Artifact, bool) {
	a, ok := s.byID[key.ID()]
	if !ok || !a.Key.Equal(key) {
		return nil, false
	}
	return a, true
}

// Close releases every mapping. The store must not be used afterwards.
func (s *Store) Close() error {
	var first error
	for _, a := range s.arts {
		if err := a.close(); err != nil && first == nil {
			first = err
		}
	}
	s.arts, s.byID = nil, nil
	return first
}

// index is the on-disk manifest (IndexFile). Fingerprints are %016x hex
// strings so shell tooling can grep them against cepspre/engine logs.
type index struct {
	Version   int          `json:"version"`
	Artifacts []indexEntry `json:"artifacts"`
}

type indexEntry struct {
	File        string `json:"file"`
	Class       string `json:"class"`
	GraphFP     string `json:"graph_fp"`
	ConfigFP    string `json:"config_fp"`
	PartitionFP string `json:"partition_fp"`
	Parts       []int  `json:"parts,omitempty"`
	N           int    `json:"n"`
	Sources     int    `json:"sources"`
	Bytes       int64  `json:"bytes"`
}

func fpString(v uint64) string { return fmt.Sprintf("%016x", v) }

func fpParse(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }

func (e indexEntry) key() (Key, error) {
	g, err := fpParse(e.GraphFP)
	if err != nil {
		return Key{}, fmt.Errorf("bad graph_fp %q: %w", e.GraphFP, err)
	}
	c, err := fpParse(e.ConfigFP)
	if err != nil {
		return Key{}, fmt.Errorf("bad config_fp %q: %w", e.ConfigFP, err)
	}
	p, err := fpParse(e.PartitionFP)
	if err != nil {
		return Key{}, fmt.Errorf("bad partition_fp %q: %w", e.PartitionFP, err)
	}
	return Key{GraphFP: g, ConfigFP: c, PartitionFP: p, Parts: e.Parts}, nil
}

// readIndex loads and minimally validates the manifest.
func readIndex(dir string) (*index, error) {
	raw, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		return nil, fmt.Errorf("artifact: reading %s: %w", IndexFile, err)
	}
	var idx index
	if err := json.Unmarshal(raw, &idx); err != nil {
		return nil, fmt.Errorf("artifact: decoding %s: %w", IndexFile, err)
	}
	if idx.Version != Version {
		return nil, fmt.Errorf("artifact: %s version %d, this build reads %d", IndexFile, idx.Version, Version)
	}
	for _, e := range idx.Artifacts {
		if e.File != filepath.Base(e.File) || !strings.HasSuffix(e.File, FileExt) {
			return nil, fmt.Errorf("artifact: index lists invalid file name %q", e.File)
		}
	}
	return &idx, nil
}

// writeIndex persists the manifest atomically (temp + rename).
func writeIndex(dir string, idx *index) error {
	raw, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, IndexFile+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, IndexFile))
}

// Open loads every artifact the directory's index lists, verifying the
// header, the checksum over the full file, and consistency with the index
// entry. Any corrupt, truncated, or missing artifact fails the whole Open:
// a tier that silently dropped files would quietly lose its latency
// guarantee, so damage must be visible at startup (and fixed by re-running
// cepspre, or diagnosed with cepspre -verify).
func Open(dir string) (*Store, error) {
	idx, err := readIndex(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, byID: make(map[uint64]*Artifact, len(idx.Artifacts))}
	for _, e := range idx.Artifacts {
		a, err := loadOne(dir, e)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("artifact: %s: %w", e.File, err)
		}
		id := a.Key.ID()
		if dup, ok := s.byID[id]; ok {
			s.Close()
			return nil, fmt.Errorf("artifact: %s and %s share key %s", dup.File, a.File, fpString(id))
		}
		s.byID[id] = a
		s.arts = append(s.arts, a)
	}
	return s, nil
}

// loadOne maps one artifact file and validates it against its index entry.
func loadOne(dir string, e indexEntry) (*Artifact, error) {
	wantKey, err := e.key()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, e.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mapped, err := mapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	a, err := decode(data)
	if err != nil {
		unmapFile(data, mapped)
		return nil, err
	}
	a.File, a.mapped = e.File, mapped
	switch {
	case e.Class != classPanelName:
		err = fmt.Errorf("index lists class %q, this build reads only %q; rebuild the directory with cepspre", e.Class, classPanelName)
	case !a.Key.Equal(wantKey):
		err = fmt.Errorf("key %s does not match index entry", fpString(a.Key.ID()))
	case a.N != e.N:
		err = fmt.Errorf("n %d, index says %d", a.N, e.N)
	case len(a.Sources) != e.Sources:
		err = fmt.Errorf("%d sources, index says %d", len(a.Sources), e.Sources)
	case a.Bytes() != e.Bytes:
		err = fmt.Errorf("%d bytes, index says %d", a.Bytes(), e.Bytes)
	}
	if err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

// decode parses and checks a whole artifact file image. The returned
// Artifact aliases data.
func decode(data []byte) (*Artifact, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("truncated header: %d bytes", len(data))
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("bad magic %q", data[:8])
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(data[off:]) }
	if v := u32(8); v != Version {
		return nil, fmt.Errorf("version %d, this build reads %d", v, Version)
	}
	if class := u32(12); class != classPanel {
		return nil, fmt.Errorf("class %d, this build reads only class %d (%s); rebuild the directory with cepspre", class, classPanel, classPanelName)
	}
	n := int(u32(48))
	nParts := int(u32(52))
	nSources := int(u32(56))
	if n <= 0 || nSources <= 0 || nSources > n {
		return nil, fmt.Errorf("implausible shape: n=%d sources=%d", n, nSources)
	}
	rowOff := payloadRowOffset(nParts, nSources)
	want := int64(rowOff) + int64(nSources)*int64(n)*8
	if int64(len(data)) != want {
		return nil, fmt.Errorf("file is %d bytes, header implies %d", len(data), want)
	}

	h := fnv.New64a()
	h.Write(data[:64])
	h.Write(data[headerSize:])
	if sum := h.Sum64(); sum != u64(64) {
		return nil, fmt.Errorf("checksum mismatch: stored %s, computed %s", fpString(u64(64)), fpString(sum))
	}

	key := Key{GraphFP: u64(16), ConfigFP: u64(24), PartitionFP: u64(32)}
	off := headerSize
	for i := 0; i < nParts; i++ {
		key.Parts = append(key.Parts, int(u32(off)))
		off += 4
	}
	sources := make([]int, nSources)
	prev := -1
	for i := range sources {
		sources[i] = int(u32(off))
		off += 4
		if sources[i] <= prev || sources[i] >= n {
			return nil, fmt.Errorf("source list not ascending in [0,%d) at entry %d", n, i)
		}
		prev = sources[i]
	}
	return &Artifact{
		Key:     key,
		N:       n,
		Sources: sources,
		Restart: math.Float64frombits(u64(40)),
		data:    data,
		rowOff:  rowOff,
	}, nil
}

// payloadRowOffset computes where the float64 rows start: after the part
// and source id lists, padded to 8-byte alignment (headerSize is already
// 8-aligned).
func payloadRowOffset(nParts, nSources int) int {
	off := headerSize + 4*(nParts+nSources)
	if rem := off % 8; rem != 0 {
		off += 8 - rem
	}
	return off
}

// writeFile streams one artifact to dir atomically (temp + rename),
// computing the checksum as the payload is written. rows are indexed in
// source-list order; each must have n entries.
func writeFile(dir string, key Key, n int, restart float64, sources []int, rows [][]float64) (file string, bytes int64, err error) {
	header := make([]byte, headerSize)
	copy(header, Magic)
	binary.LittleEndian.PutUint32(header[8:], Version)
	binary.LittleEndian.PutUint32(header[12:], classPanel)
	binary.LittleEndian.PutUint64(header[16:], key.GraphFP)
	binary.LittleEndian.PutUint64(header[24:], key.ConfigFP)
	binary.LittleEndian.PutUint64(header[32:], key.PartitionFP)
	binary.LittleEndian.PutUint64(header[40:], math.Float64bits(restart))
	binary.LittleEndian.PutUint32(header[48:], uint32(n))
	binary.LittleEndian.PutUint32(header[52:], uint32(len(key.Parts)))
	binary.LittleEndian.PutUint32(header[56:], uint32(len(sources)))

	h := fnv.New64a()
	h.Write(header[:64])

	tmp, err := os.CreateTemp(dir, "artifact.tmp*")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if _, err = bw.Write(header); err != nil {
		return "", 0, err
	}
	// Everything after the header feeds both the file and the checksum.
	out := io.MultiWriter(bw, h)
	var buf [8]byte
	putU32 := func(v int) error {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		_, werr := out.Write(buf[:4])
		return werr
	}
	for _, p := range key.Parts {
		if err = putU32(p); err != nil {
			return "", 0, err
		}
	}
	for _, src := range sources {
		if err = putU32(src); err != nil {
			return "", 0, err
		}
	}
	if pad := payloadRowOffset(len(key.Parts), len(sources)) - headerSize - 4*(len(key.Parts)+len(sources)); pad > 0 {
		if _, err = out.Write(make([]byte, pad)); err != nil {
			return "", 0, err
		}
	}
	rowBuf := make([]byte, n*8)
	for i, row := range rows {
		if len(row) != n {
			err = fmt.Errorf("artifact: row %d has %d entries, want %d", i, len(row), n)
			return "", 0, err
		}
		for j, v := range row {
			binary.LittleEndian.PutUint64(rowBuf[j*8:], math.Float64bits(v))
		}
		if _, err = out.Write(rowBuf); err != nil {
			return "", 0, err
		}
	}
	if err = bw.Flush(); err != nil {
		return "", 0, err
	}
	// Patch the checksum in place now that the payload has been hashed.
	binary.LittleEndian.PutUint64(buf[:], h.Sum64())
	if _, err = tmp.WriteAt(buf[:], 64); err != nil {
		return "", 0, err
	}
	st, err := tmp.Stat()
	if err != nil {
		return "", 0, err
	}
	if err = tmp.Close(); err != nil {
		return "", 0, err
	}
	file = fpString(key.ID()) + FileExt
	if err = os.Rename(tmp.Name(), filepath.Join(dir, file)); err != nil {
		return "", 0, err
	}
	return file, st.Size(), nil
}

// VerifyIssue is one problem Verify found with one file.
type VerifyIssue struct {
	File    string
	Problem string
}

// Verify is the artifact fsck behind `cepspre -verify`: it re-validates
// every indexed artifact (header, checksum, index consistency) and flags
// stray artifact files the index does not list. The error reports an
// unreadable index; per-file damage comes back as issues.
func Verify(dir string) (checked int, issues []VerifyIssue, err error) {
	idx, err := readIndex(dir)
	if err != nil {
		return 0, nil, err
	}
	listed := make(map[string]bool, len(idx.Artifacts))
	for _, e := range idx.Artifacts {
		listed[e.File] = true
		checked++
		a, lerr := loadOne(dir, e)
		if lerr != nil {
			issues = append(issues, VerifyIssue{File: e.File, Problem: lerr.Error()})
			continue
		}
		a.close()
	}
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		return checked, issues, derr
	}
	for _, ent := range entries {
		name := ent.Name()
		if !ent.Type().IsRegular() || !strings.HasSuffix(name, FileExt) {
			continue
		}
		if !listed[name] {
			issues = append(issues, VerifyIssue{File: name, Problem: "not listed in " + IndexFile})
		}
	}
	return checked, issues, nil
}

// readAll reads size bytes from the start of f (the mmap fallback path).
func readAll(f *os.File, size int64) ([]byte, error) {
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	return data, nil
}
