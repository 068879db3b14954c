// Command cepspre precomputes the serving artifacts an Engine mmaps with
// ceps.WithArtifactDir: per-partition (and optionally full-graph) solved
// score panels, content-keyed by graph, RWR-config and partition
// fingerprints so a mismatched engine cleanly ignores them.
//
// Usage:
//
//	cepspre -graph g.txt -out artifacts/ [-partitions 16] [flags]
//	cepspre -verify -out artifacts/
//
// Build mode solves each partition union offline with the engine's own
// blocked kernel: a panel of per-source score vectors for the
// highest-weighted-degree sources that fit -budget (every source when the
// union's N² rows fit), each row the m-sweep iterate the engine would
// compute, bit for bit. The RWR flags (-c, -m, -alpha, -norm, -tol) and
// -partitions/-seed must match the serving engine's configuration, or the
// artifacts will not bind — fingerprints enforce this; the tool cannot
// check a config it never sees.
//
// Directories written by older builds may hold dense-class artifacts
// (rows from the closed-form inverse). This build refuses them — the
// engine fails to start on such a directory and -verify reports each
// file — so rebuild them.
//
// Verify mode is an artifact fsck: it re-validates every indexed file
// (magic, version, shape, checksum) and flags stray artifact files the
// index does not list, without needing the graph.
//
// Exit codes: 0 success, 1 build/verify failure (including any verify
// issue), 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"ceps"
	"ceps/internal/artifact"
	"ceps/internal/partition"
	"ceps/internal/rwr"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against argv and returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cepspre", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "path to a ceps-graph text file (required unless -verify)")
		outDir    = fs.String("out", "", "artifact directory to write or verify (required)")
		parts     = fs.Int("partitions", 0, "partition the graph into this many parts and precompute each part's union (0 = full graph only)")
		seed      = fs.Int64("seed", 1, "partitioner seed; must match the serving engine's fast-mode seed")
		budgetMB  = fs.Int("budget", 64, "per-unit byte budget in MiB: each union covers as many of its top-weighted-degree sources as fit (all of them once N² rows fit)")
		full      = fs.Bool("full", false, "also precompute the full-graph artifact when -partitions is set (it always is without)")
		workers   = fs.Int("workers", 0, "concurrent blocked solves of up to 16 sources each (0 = GOMAXPROCS)")
		verify    = fs.Bool("verify", false, "verify an existing artifact directory instead of building")
		verbose   = fs.Bool("v", false, "log per-unit progress to stderr")

		c     = fs.Float64("c", 0.5, "random-walk continuation coefficient")
		m     = fs.Int("m", 50, "random-walk iterations")
		alpha = fs.Float64("alpha", 0.5, "degree-penalization strength")
		norm  = fs.String("norm", "penalized", "normalization: column | penalized | symmetric")
		tol   = fs.Float64("tol", 0, "early-stop tolerance (0 = fixed iterations, the paper's setting)")
	)
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if *outDir == "" {
		fs.Usage()
		return exitUsage
	}

	if *verify {
		if *graphPath != "" {
			fmt.Fprintln(stderr, "cepspre: -verify validates -out on its own; -graph is not used")
			return exitUsage
		}
		checked, issues, err := artifact.Verify(*outDir)
		if err != nil {
			fmt.Fprintf(stderr, "cepspre: %v\n", err)
			return exitError
		}
		fmt.Fprintf(stdout, "verified %d artifacts in %s\n", checked, *outDir)
		for _, is := range issues {
			fmt.Fprintf(stdout, "  BAD %s: %s\n", is.File, is.Problem)
		}
		if len(issues) > 0 {
			fmt.Fprintf(stderr, "cepspre: %d of %d artifacts damaged\n", len(issues), checked)
			return exitError
		}
		return exitOK
	}

	if *graphPath == "" {
		fs.Usage()
		return exitUsage
	}
	if *parts < 0 || *budgetMB <= 0 || *workers < 0 {
		fmt.Fprintln(stderr, "cepspre: -partitions and -workers must be non-negative, -budget positive")
		return exitUsage
	}
	kind, err := rwr.ParseNorm(*norm)
	if err != nil {
		fmt.Fprintf(stderr, "cepspre: %v\n", err)
		return exitUsage
	}
	rc := rwr.Config{C: *c, Iterations: *m, Alpha: *alpha, Norm: kind, Tol: *tol}
	if err := rc.Validate(); err != nil {
		fmt.Fprintf(stderr, "cepspre: %v\n", err)
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	g, err := ceps.ReadGraphFile(*graphPath)
	if err != nil {
		fmt.Fprintf(stderr, "cepspre: %v\n", err)
		return exitError
	}

	bc := artifact.BuildConfig{
		RWR:         rc,
		IncludeFull: *full,
		ByteBudget:  int64(*budgetMB) << 20,
		Workers:     *workers,
	}
	if *verbose {
		bc.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, "cepspre: "+format+"\n", args...)
		}
	}
	if *parts > 0 {
		pt, err := partition.KWayCtx(ctx, g, *parts, partition.Options{Seed: *seed})
		if err != nil {
			fmt.Fprintf(stderr, "cepspre: partitioning: %v\n", err)
			return exitError
		}
		bc.Partition = pt
	}

	res, err := artifact.Build(ctx, g, bc, *outDir)
	if err != nil {
		fmt.Fprintf(stderr, "cepspre: %v\n", err)
		return exitError
	}

	fmt.Fprintf(stdout, "graph %s: %d nodes, fingerprint %016x, config %016x",
		*graphPath, g.N(), res.GraphFP, res.ConfigFP)
	if bc.Partition != nil {
		fmt.Fprintf(stdout, ", partition %016x (%d parts, seed %d)", res.PartitionFP, *parts, *seed)
	}
	fmt.Fprintln(stdout)
	for _, u := range res.Units {
		name := "full graph"
		if len(u.Parts) > 0 {
			name = fmt.Sprintf("part %v", u.Parts)
		}
		if u.Skipped {
			fmt.Fprintf(stdout, "  skip %-12s %6d nodes: %s\n", name, u.N, u.Reason)
			continue
		}
		fmt.Fprintf(stdout, "  %-12s %6d nodes, %6d sources, %10d bytes -> %s\n",
			name, u.N, u.Sources, u.Bytes, u.File)
	}
	fmt.Fprintf(stdout, "wrote %d artifacts, %d bytes to %s\n", res.Written, res.Bytes, *outDir)
	return exitOK
}
