// Command perfbench is the repository's benchmark. It runs one named
// workload through the engine's public Go API (ceps.NewEngine, Engine.Do,
// Engine.ReplaceSubteam), re-checks a seeded sample of the answers against
// the plain pipeline, and prints one JSON result line: the end-to-end
// metrics, or with --trace 1 the per-layer metrics.
//
//	go run . --workload warm-centerpiece --seed 1 --seconds 10 --trace 0
//	go run . --workload cold-fast --seed 1 --repeat 5   # steadiness mode
//
// Run it from the repository root through run.sh, which builds it there.
// README.md describes the workloads, the metrics and the layer table.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line and performs one run, or with --repeat the
// steadiness mode. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the substrate and the request stream")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "steadiness mode: run this many times on seeds seed, seed+1, … and print each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case w.clients > runtime.NumCPU():
		// More clients than processors would measure the scheduler's
		// queueing, not the engine's.
		fmt.Fprintf(stderr, "perfbench: %s runs %d closed-loop clients, more than nproc = %d\n", w.name, w.clients, runtime.NumCPU())
		return 2
	}
	o.trace = *trace == 1
	var err error
	if *repeat > 0 {
		err = steadiness(o, *repeat, stdout, stderr)
	} else {
		err = execute(context.Background(), w, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// steadiness runs the workload n times as child processes on consecutive
// seeds and prints, per metric, the median, the quartiles and the spread
// (the interquartile distance as a share of the median) — the numbers a
// metric's bound in BENCHMARK.json is set from.
func steadiness(o options, n int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	unit := map[string]string{}
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		args := []string{"--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", "0"}
		if o.trace {
			args[len(args)-1] = "1"
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		line := lastLine(out)
		var res result
		if err := json.Unmarshal(line, &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run reported incorrect answers or an invalid schedule", seed)
		}
		fmt.Fprintf(stdout, "seed %d: %s\n", seed, line)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			unit[name] = m.Unit
		}
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := append([]float64(nil), values[name]...)
		sort.Float64s(v)
		q1, med, q3 := quartiles(v)
		fmt.Fprintf(stdout, "%-28s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f\n",
			name, unit[name], med, q1, q3, ratio(q3-q1, math.Abs(med)))
	}
	return nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}
