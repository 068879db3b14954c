package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceps"
)

func writeGraphFile(t *testing.T) string {
	t.Helper()
	return writeGraph(t, testGraph(t))
}

// writeGraph saves g as a graph file and returns its path.
func writeGraph(t *testing.T, g *ceps.Graph) string {
	t.Helper()
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

func TestRunExitOK(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-graph", writeGraphFile(t), "-q", "Alice,Carol", "-b", "2"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "subgraph:") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestRunExitUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != exitUsage {
		t.Fatalf("missing flags: exit = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != exitUsage {
		t.Fatalf("bad flag: exit = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"-graph", writeGraphFile(t), "-q", "Alice", "-norm", "bogus"}, &out, &errb); code != exitUsage {
		t.Fatalf("bad norm: exit = %d, want %d", code, exitUsage)
	}
}

func TestRunExitError(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-graph", filepath.Join(t.TempDir(), "missing.txt"), "-q", "0"}, &out, &errb)
	if code != exitError {
		t.Fatalf("exit = %d, want %d", code, exitError)
	}
	code = run([]string{"-graph", writeGraphFile(t), "-q", "NoSuchAuthor"}, &out, &errb)
	if code != exitError {
		t.Fatalf("unknown label: exit = %d, want %d", code, exitError)
	}
}

// TestRunExitDeadline: an immediately expiring -timeout must map onto the
// dedicated deadline exit code, not the generic error one.
func TestRunExitDeadline(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-graph", writeGraphFile(t), "-q", "Alice,Carol", "-m", "1000000", "-timeout", "1ns"}, &out, &errb)
	if code != exitDeadline {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitDeadline, errb.String())
	}
}

// TestRunAutoK: -auto-k infers k from the query set, prints it, and
// answers with the matching query type without changing the engine's
// config. On two cliques joined by one weak bridge, two queries in each
// clique infer k = 2.
func TestRunAutoK(t *testing.T) {
	b := ceps.NewBuilder(12)
	for base := 0; base < 12; base += 6 {
		for i := base; i < base+6; i++ {
			for j := i + 1; j < base+6; j++ {
				b.AddEdge(i, j, 3)
			}
		}
	}
	b.AddEdge(0, 6, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-graph", writeGraph(t, g), "-q", "1,2,7,8", "-auto-k", "-b", "4"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "inferred k = 2 ") {
		t.Errorf("stderr should report the inferred k: %s", errb.String())
	}
	if !strings.Contains(out.String(), "query type: 2_softAND") {
		t.Errorf("answer should use the inferred query type: %s", out.String())
	}
}
