package artifact

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceps/internal/rwr"
)

// fuzzArtifactDir builds one small panel artifact (a full-graph build under
// a budget of a few rows) and returns its directory, file name and image.
func fuzzArtifactDir(f *testing.F) (dir, file string, image []byte) {
	f.Helper()
	g := testGraph(f, 12, 10, 3)
	dir = f.TempDir()
	res, err := Build(context.Background(), g, BuildConfig{RWR: testCfg(rwr.NormColumn), ByteBudget: 3 * 8 * 12}, dir)
	if err != nil {
		f.Fatal(err)
	}
	if res.Written != 1 {
		f.Fatalf("built %d artifacts, want 1", res.Written)
	}
	file = res.Units[0].File
	image, err = os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		f.Fatal(err)
	}
	return dir, file, image
}

// checkAccepted asserts what every accepted artifact promises its readers:
// a strictly ascending source list inside [0, N), and a row of N scores,
// read from inside the file, for each covered source.
func checkAccepted(t *testing.T, a *Artifact) {
	t.Helper()
	for i, s := range a.Sources {
		if s < 0 || s >= a.N || (i > 0 && s <= a.Sources[i-1]) {
			t.Fatalf("accepted sources %v for n=%d", a.Sources, a.N)
		}
		if end := a.rowOff + (i+1)*a.N*8; a.rowOff < headerSize || end > len(a.data) {
			t.Fatalf("row %d spans [%d, %d) of a %d-byte file", i, a.rowOff+i*a.N*8, end, len(a.data))
		}
		if row, ok := a.Row(s); !ok || len(row) != a.N {
			t.Fatalf("Row(%d) = %d values, %v; want %d", s, len(row), ok, a.N)
		}
	}
}

// FuzzArtifactDecode drives the artifact file decoder with arbitrary images,
// seeded with a real one, its truncations and single-byte flips. It may
// reject anything; it must not panic, and what it accepts must be readable.
func FuzzArtifactDecode(f *testing.F) {
	_, _, image := fuzzArtifactDir(f)
	f.Add(image)
	for _, n := range []int{0, 8, headerSize - 1, headerSize, headerSize + 4, len(image) / 2, len(image) - 1} {
		f.Add(image[:n])
	}
	for _, off := range []int{0, 8, 12, 48, 52, 56, 64, headerSize, len(image) - 1} {
		flipped := append([]byte(nil), image...)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	// A header claiming far more parts than the file holds (checksum left
	// stale): the size check must reject it before any part id is read.
	huge := append([]byte(nil), image...)
	binary.LittleEndian.PutUint32(huge[52:], 1<<30)
	f.Add(huge)
	// An older build's dense-class file, checksum intact: refused by class.
	f.Add(denseImage(image))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decode(data)
		if err != nil {
			return
		}
		checkAccepted(t, a)
	})
}

// FuzzArtifactIndex writes arbitrary bytes as index.json next to one valid
// artifact and opens the directory. Open may reject anything; it must not
// panic, and every artifact it loads must be readable.
func FuzzArtifactIndex(f *testing.F) {
	srcDir, file, image := fuzzArtifactDir(f)
	index, err := os.ReadFile(filepath.Join(srcDir, IndexFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index)
	for _, edit := range [][2]string{
		{`"version": 1`, `"version": 2`},
		{`"class": "panel"`, `"class": "dense"`},
		{`"class": "panel"`, `"class": "frog"`},
		{file, "../" + file},
		{file, "missing" + FileExt},
		{`"n": 12`, `"n": 13`},
		{`"graph_fp": "`, `"graph_fp": "zz`},
	} {
		f.Add([]byte(strings.Replace(string(index), edit[0], edit[1], 1)))
	}
	f.Add([]byte(`{"version":1,"artifacts":[]}`))
	f.Add([]byte(`{"version":1,"artifacts":null}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, file), image, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, IndexFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := Open(dir)
		if err != nil {
			return
		}
		defer store.Close()
		for _, a := range store.Artifacts() {
			checkAccepted(t, a)
		}
	})
}
