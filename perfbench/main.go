// Command perfbench is the repository's host-performance benchmark. It
// drives the simulator only through its public calls, the way a user
// does, and measures one workload per run:
//
//	membound-sweep    the Figure-2 grid (5 memory-bound proxies x 5
//	                  mechanisms) through exp.Matrix
//	population-sweep  a seeded synth population x {OoO, PRE} x
//	                  {no-pf, adaptive}
//	simd-mixed        a closed loop of clients against an in-process
//	                  simulation server, mostly warm cached jobs
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the per-layer measurement instead (spans around every public call, a
// CPU profile aggregated by package, deterministic work counters). The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// metrics.json is the metric catalogue (units, directions, bounds, the
// layer each metric belongs to and what it should move); BENCHMARK.json
// at the repository root is rendered from it by `go test -run
// BenchmarkJSON -update`. The simulator is an unvalidated model: no
// figure here is compared against hardware.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload membound-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// benchCtx carries one run's settings.
type benchCtx struct {
	seed    int64
	seconds float64
	workers int
	workdir string
}

// outcome is one run's measured metrics plus its operation accounting.
type outcome struct {
	rep               *report
	attempted, failed int
}

// workloadRunner measures one workload untraced or traced.
type workloadRunner interface {
	measure(bc *benchCtx) (outcome, error)
	traced(bc *benchCtx) (outcome, error)
}

func workloads() map[string]workloadRunner {
	return map[string]workloadRunner{
		"membound-sweep":   sweep{name: "membound-sweep", matrix: memboundMatrix, window: memboundWindow},
		"population-sweep": sweep{name: "population-sweep", matrix: populationMatrix, window: populationWindow, spareCPU: true},
		"simd-mixed":       simdMixed{},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: membound-sweep, population-sweep or simd-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the cache, profile and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cat, err := loadCatalog()
	if err != nil {
		return err
	}
	w, ok := workloads()[*name]
	if !ok || !cat.hasWorkload(*name) {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	// One simulation worker or simd client per CPU.
	bc := &benchCtx{seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), workdir: *workdir}
	var out outcome
	if *traced == 1 {
		out, err = w.traced(bc)
	} else {
		out, err = w.measure(bc)
	}
	if err != nil {
		return err
	}
	if *traced == 1 {
		out.rep.notef("model outputs (ipc, hit fractions, runahead counts) come from an unvalidated simulator; no hardware error figure is given")
	}
	return out.rep.write(stdout, cat.metrics(*traced == 1), *name, out.attempted, out.failed)
}
