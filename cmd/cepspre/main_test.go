package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceps"
)

// writeTestGraph writes a small two-community graph to a temp file and
// returns its path.
func writeTestGraph(t *testing.T) string {
	t.Helper()
	b := ceps.NewBuilder(0)
	for i := 0; i < 24; i++ {
		b.AddNode("")
	}
	// Two dense 12-node communities with one bridge.
	for c := 0; c < 2; c++ {
		base := c * 12
		for i := 0; i < 12; i++ {
			for j := i + 1; j < 12; j += 3 {
				b.AddEdge(base+i, base+j, 1)
			}
		}
	}
	b.AddEdge(5, 17, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildThenVerify(t *testing.T) {
	graphPath := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "artifacts")
	var stdout, stderr strings.Builder
	code := run([]string{"-graph", graphPath, "-out", out, "-partitions", "2", "-full", "-v"}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("build exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote 3 artifacts") {
		t.Fatalf("expected full + 2 part artifacts:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-verify", "-out", out}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("verify exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "verified 3 artifacts") {
		t.Fatalf("verify output:\n%s", stdout.String())
	}
}

// TestVerifyFlagsCorruption: -verify names a damaged file, and a
// dense-class file from an older build (class word 1, checksum intact) as
// one to rebuild.
func TestVerifyFlagsCorruption(t *testing.T) {
	damage := []struct {
		name, want string
		hurt       func(data []byte)
	}{
		{"flipped byte", "BAD", func(data []byte) { data[len(data)-1] ^= 0xff }},
		{"dense class word", "rebuild", func(data []byte) {
			binary.LittleEndian.PutUint32(data[12:], 1)
			h := fnv.New64a()
			h.Write(data[:64])
			h.Write(data[72:])
			binary.LittleEndian.PutUint64(data[64:], h.Sum64())
		}},
	}
	graphPath := writeTestGraph(t)
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "artifacts")
			if code := run([]string{"-graph", graphPath, "-out", out}, &strings.Builder{}, &strings.Builder{}); code != exitOK {
				t.Fatalf("build exit %d", code)
			}
			ents, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			hurt := false
			for _, e := range ents {
				if filepath.Ext(e.Name()) != ".cpa" {
					continue
				}
				path := filepath.Join(out, e.Name())
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				d.hurt(data)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				hurt = true
				break
			}
			if !hurt {
				t.Fatal("no artifact file written")
			}
			var stdout, stderr strings.Builder
			if code := run([]string{"-verify", "-out", out}, &stdout, &stderr); code != exitError {
				t.Fatalf("verify of a %s: exit %d\n%s", d.name, code, stdout.String())
			}
			if !strings.Contains(stdout.String(), "BAD") || !strings.Contains(stdout.String(), d.want) {
				t.Fatalf("verify should name the damaged file (%q):\n%s", d.want, stdout.String())
			}
		})
	}
}

func TestBuiltArtifactsBindToEngine(t *testing.T) {
	graphPath := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "artifacts")
	if code := run([]string{"-graph", graphPath, "-out", out, "-partitions", "2"}, &strings.Builder{}, &strings.Builder{}); code != exitOK {
		t.Fatalf("build failed")
	}
	g, err := ceps.ReadGraphFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ceps.NewEngine(g,
		ceps.WithCache(4<<20),
		ceps.WithArtifactDir(out))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pt, err := ceps.PrePartition(context.Background(), g, 2, ceps.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetPartitioned(pt)
	st, ok := eng.ArtifactStats()
	if !ok || st.Loaded != 2 || st.Bound != 2 {
		t.Fatalf("stats = %+v, want 2 loaded and both part spaces bound", st)
	}
	res, err := eng.Do(context.Background(), []int{3, 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.ArtifactHits != 2 || res.Stages.SolveKernel != "artifact" {
		t.Fatalf("stages = %+v, want both sources artifact-served", res.Stages)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-out", "x"},
		{"-graph", "g", "-out", "x", "-norm", "bogus"},
		{"-graph", "g", "-out", "x", "-partitions", "-1"},
		{"-verify", "-out", "x", "-graph", "g"},
	}
	for _, argv := range cases {
		if code := run(argv, &strings.Builder{}, &strings.Builder{}); code != exitUsage {
			t.Errorf("run(%v) = %d, want usage error", argv, code)
		}
	}
}
