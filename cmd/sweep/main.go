// Command sweep runs the design-space ablations called out in DESIGN.md:
//
//	sweep -sst           # A1: SST size sweep (paper: 256 entries suffice)
//	sweep -emq           # A2: EMQ size sweep (paper picks 768 = 4x ROB)
//	sweep -rathreshold   # A3: RA short-interval filter threshold
//	sweep -mshr          # extra: memory-level-parallelism budget
//	sweep -pf            # PF grid: every mechanism x every prefetcher variant
//	sweep -synth         # population sweep: -seeds sampled scenarios
//
// Each sweep reports the geometric-mean speedup over the OoO baseline
// across the whole suite for each parameter value. The -pf grid is the
// PRE-vs-prefetch-vs-combined comparison: {OoO, RA, RA-buffer, PRE,
// PRE+EMQ} x the eight standard prefetcher variants (no-pf, stride,
// best-offset, stride+bo, l1i-nl, throttled, filtered, adaptive) over
// the 13-workload suite, with per-run prefetch accuracy/coverage/
// timeliness in the results JSON.
//
// The -synth sweep replaces the fixed suite with a seeded scenario
// population (internal/workload/synth): -seeds scenarios sampled from the
// default space (base seed -synthseed, default date-pinned), every
// mechanism per scenario, reported as per-seed speedup distributions
// (min/median/geomean + worst seed). The results JSON records each
// scenario's sampled parameters, so any seed is reproducible from the
// artifact alone.
//
// The command is a thin frontend over the parallel experiment
// orchestrator (internal/exp). Each sweep is declared once, as a job spec
// whose points are the parameter values: -server submits it to a
// simulation server, and a local run compiles it to one exp.Matrix, whose
// orchestrator dedupes the shared OoO baselines and shards the unique
// runs across -workers cores. -json captures the full schema-versioned
// results document, the same bytes on either path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	presim "repro"
	"repro/internal/exp"
)

func main() {
	doSST := flag.Bool("sst", false, "sweep SST size (PRE)")
	doEMQ := flag.Bool("emq", false, "sweep EMQ size (PRE+EMQ)")
	doRAT := flag.Bool("rathreshold", false, "sweep RA short-interval filter")
	doMSHR := flag.Bool("mshr", false, "sweep L1D MSHR count (PRE)")
	doPF := flag.Bool("pf", false, "run the mechanism x hardware-prefetcher grid")
	doSynth := flag.Bool("synth", false, "run a seeded scenario-population sweep")
	seeds := flag.Int("seeds", 20, "population size for -synth")
	synthSeed := flag.Uint64("synthseed", 0, "population base seed for -synth (0 = date-pinned default)")
	warmup := flag.Int64("warmup", 50_000, "warmup µops per run")
	measure := flag.Int64("n", 200_000, "measured µops per run")
	workers := flag.Int("workers", 0, "worker pool width (0 = one per CPU)")
	jsonDir := flag.String("json", "", "directory to write schema-versioned results JSON into")
	timing := flag.Bool("time", false, "report wall-clock time per sweep")
	progress := flag.Bool("progress", false, "print live per-run progress to stderr as the sweep advances")
	server := flag.String("server", "", "submit the sweep to a running simulation server (cmd/simd URL) instead of simulating locally; the server's result cache makes repeated sweeps cheap. Remote sweeps report cache/timing stats and write the results JSON via -json; summary tables are a local-run feature")
	tracefile := flag.String("tracefile", "", "write a merged Chrome-trace (Perfetto) sidecar of the sweep's runs to this file; requires exactly one sweep selection")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at sweep end to this file")
	flag.Parse()

	if *server != "" && (*tracefile != "" || *workers != 0) {
		fmt.Fprintln(os.Stderr, "sweep: -server runs on the remote machine; -tracefile and -workers are local-run flags")
		os.Exit(2)
	}

	// -tracefile writes one sidecar file per invocation; two selected
	// sweeps would silently overwrite each other's trace, so fail fast.
	if *tracefile != "" {
		nSweeps := 0
		for _, b := range []bool{*doSST, *doEMQ, *doRAT, *doMSHR, *doPF, *doSynth} {
			if b {
				nSweeps++
			}
		}
		if nSweeps != 1 {
			fmt.Fprintln(os.Stderr, "sweep: -tracefile records exactly one sweep; select exactly one of -sst, -emq, -rathreshold, -mshr, -pf, -synth")
			os.Exit(2)
		}
	}

	// A zero or negative window is always an invocation mistake: -n 0
	// would make every run fail deep inside the orchestrator with a
	// confusing per-cell error, and -warmup 0 would report cold-start
	// numbers (empty caches, untrained predictor) as if they were steady
	// state.
	if *measure <= 0 {
		fmt.Fprintf(os.Stderr, "sweep: -n must be positive (got %d)\n", *measure)
		os.Exit(2)
	}
	if *warmup <= 0 {
		fmt.Fprintf(os.Stderr, "sweep: -warmup must be positive (got %d)\n", *warmup)
		os.Exit(2)
	}

	// Population knobs only act under -synth; silently ignoring an
	// explicit -seeds/-synthseed would drop the requested population run.
	if !*doSynth {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seeds" || f.Name == "synthseed" {
				fmt.Fprintf(os.Stderr, "sweep: -%s only applies to -synth (add -synth or drop the flag)\n", f.Name)
				os.Exit(2)
			}
		})
	}

	// Profiling hooks (after flag validation, so a usage exit never
	// leaves a truncated profile behind): hot-path regressions in the
	// simulator should be diagnosable from a real sweep without editing
	// code —
	//   sweep -sst -cpuprofile cpu.out && go tool pprof cpu.out
	// A mid-run fatal() stops the CPU profile before exiting; the heap
	// profile is written only on a successful run.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	s := sweeper{warmup: *warmup, measure: *measure, workers: *workers,
		jsonDir: *jsonDir, timing: *timing, progress: *progress,
		tracefile: *tracefile, server: *server}

	any := false
	if *doSST {
		any = true
		s.sweep("a1_sst", "A1: SST entries (PRE speedup over OoO)", presim.ModePRE,
			[]int{16, 32, 64, 128, 256, 512, 1024}, "sst_size")
	}
	if *doEMQ {
		any = true
		s.sweep("a2_emq", "A2: EMQ entries (PRE+EMQ speedup over OoO)", presim.ModePREEMQ,
			[]int{192, 384, 768, 1152, 1536}, "emq_size")
	}
	if *doRAT {
		any = true
		s.sweep("a3_rathreshold", "A3: RA minimum-interval filter, cycles (RA speedup over OoO)", presim.ModeRA,
			[]int{0, 20, 40, 64, 100, 150}, "min_runahead_cycles")
	}
	if *doMSHR {
		any = true
		s.sweep("mshr", "MSHR budget: L1D outstanding misses (PRE speedup over OoO)", presim.ModePRE,
			[]int{8, 16, 32, 64}, "l1d_mshrs")
	}
	if *doPF {
		any = true
		s.sweepPF()
	}
	if *doSynth {
		any = true
		s.sweepSynth(*seeds, *synthSeed)
	}
	if !any {
		fmt.Fprintln(os.Stderr, "sweep: pass at least one of -sst, -emq, -rathreshold, -mshr, -pf, -synth")
		os.Exit(2)
	}
}

type sweeper struct {
	warmup, measure int64
	workers         int
	jsonDir         string
	timing          bool
	progress        bool
	tracefile       string
	server          string // simulation-server URL; "" = run locally
}

// runOpts assembles the orchestrator options: the pool width, per-run
// trace recording when -tracefile was given, and the live -progress meter
// on stderr (stderr so it never pollutes the parseable stdout tables).
func (s sweeper) runOpts() exp.RunOptions {
	o := exp.RunOptions{Workers: s.workers, Trace: s.tracefile != ""}
	if s.progress {
		o.Progress = func(ev exp.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d done  %s/%s  %.2fs (elapsed %.1fs)\n",
				ev.Done, ev.Total, ev.Workload, ev.Mode, ev.Seconds, ev.ElapsedSeconds)
		}
	}
	return o
}

// spec declares a sweep over the sweeper's measurement window.
func (s sweeper) spec(name string, workloads []string, modes []presim.Mode, points []presim.JobPoint) presim.JobSpec {
	spec := presim.JobSpec{Name: name, Workloads: workloads, Points: points,
		WarmupUops: s.warmup, MeasureUops: s.measure}
	for _, m := range modes {
		spec.Modes = append(spec.Modes, m.String())
	}
	return spec
}

// run executes one sweep from its single declaration: -server submits
// the spec as is; a local run compiles it with spec.Matrix(), lets the
// orchestrator dedupe baselines and saturate the worker pool, and hands
// the finished set to report for the stdout summary. Both paths write the
// same results document to -json.
//
//sim:wallclock -timing progress display only; the JSON artifact carries its own audited meta
func (s sweeper) run(spec presim.JobSpec, report func(*presim.ExperimentPlan, *presim.ExperimentSet)) {
	start := time.Now()
	if s.server != "" {
		s.submitRemote(spec)
	} else {
		m, err := spec.Matrix()
		if err != nil {
			fatal(err)
		}
		plan, err := m.Expand()
		if err != nil {
			fatal(err)
		}
		set, err := plan.RunOpts(s.runOpts())
		if err != nil {
			fatal(err)
		}
		report(plan, set)
		if s.jsonDir != "" {
			if err := set.WriteFile(s.jsonDir, spec.Name); err != nil {
				fatal(err)
			}
		}
		if s.tracefile != "" {
			if err := set.WriteTrace(s.tracefile); err != nil {
				fatal(err)
			}
			fmt.Printf("  (trace sidecar written to %s)\n", s.tracefile)
		}
	}
	if s.timing {
		fmt.Printf("  (wall-clock %.2fs)\n", time.Since(start).Seconds())
	}
}

// sweep runs the full suite at each value of one whitelisted knob
// (serve.KnobNames) and prints the geometric-mean speedup over the
// (shared, deduplicated) OoO baseline.
func (s sweeper) sweep(name, title string, mode presim.Mode, values []int, knob string) {
	fmt.Println(title)
	points := make([]presim.JobPoint, len(values))
	for i, v := range values {
		points[i] = presim.JobPoint{
			Name:  fmt.Sprintf("%d", v),
			Knobs: map[string]int64{knob: int64(v)},
		}
	}
	spec := s.spec(name, presim.WorkloadNames(), []presim.Mode{mode}, points)
	spec.AddBaseline = true
	s.run(spec, func(_ *presim.ExperimentPlan, set *presim.ExperimentSet) {
		for pi, v := range values {
			fmt.Printf("  %6d: %.3fx\n", v, set.GeoMeanSpeedups(pi)[0])
		}
	})
}

// submitRemote submits one job spec to the -server instance, streams its
// events (surfaced via -progress), waits for completion, and captures
// the results document into -json. The document is byte-identical to a
// local run's, whether the server simulated or served from cache.
func (s sweeper) submitRemote(spec presim.JobSpec) {
	cl := presim.NewClient(s.server)
	ctx := context.Background()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		fatal(err)
	}
	var onEvent func(presim.JobEvent) error
	if s.progress {
		onEvent = func(ev presim.JobEvent) error {
			if ev.Type == "cell" {
				src := "simulated"
				if ev.Cached {
					src = "cached"
				}
				fmt.Fprintf(os.Stderr, "sweep: %d/%d done  %s/%s  %.2fs (%s)\n",
					ev.Done, ev.Total, ev.Workload, ev.Mode, ev.Seconds, src)
			}
			return nil
		}
	}
	final, err := cl.Wait(ctx, st.ID, onEvent)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  remote job %s on %s: %d unique runs, %d from cache, server wall-clock %.2fs\n",
		final.ID, s.server, final.NumUnique, final.CacheHits, final.Meta.WallClockSeconds)
	if s.jsonDir == "" {
		fmt.Println("  (pass -json DIR to capture the results document)")
		return
	}
	doc, err := cl.Result(ctx, final.ID)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(s.jsonDir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(s.jsonDir, spec.Name+".json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  (results JSON written to %s)\n", path)
}

// sweepPF runs the PF grid: every runahead mechanism crossed with every
// hardware-prefetcher variant over the full suite. The grid summary
// (geomean speedups over each variant's own OoO baseline) and
// per-variant prefetcher quality print to stdout; the full per-run
// counters land in the -json sink.
func (s sweeper) sweepPF() {
	fmt.Println("PF grid: mechanisms x hardware prefetchers (speedup over per-variant OoO)")
	var points []presim.JobPoint
	for _, v := range presim.PrefetchVariants() {
		points = append(points, presim.JobPoint{Name: v.Name, PrefetchVariant: v.Name})
	}
	spec := s.spec("pf_grid", presim.WorkloadNames(), presim.Modes(), points)
	s.run(spec, func(plan *presim.ExperimentPlan, set *presim.ExperimentSet) {
		points := plan.Points()
		summary := make([][]float64, len(points))
		for pi := range points {
			summary[pi] = set.GeoMeanSpeedups(pi)
		}
		presim.PFGridTable(points, presim.Modes(), summary).Write(os.Stdout)
		for pi, p := range points {
			var acc, cov, tim float64
			var n int
			for wi := range plan.Workloads() {
				r := set.Result(pi, wi, 0) // prefetcher quality under the OoO cell
				if r.HWPrefIssued == 0 {
					continue
				}
				acc += r.HWPFAccuracy
				cov += r.HWPFCoverage
				tim += r.HWPFTimeliness
				n++
			}
			if n > 0 {
				fmt.Printf("  %-12s OoO-cell prefetch quality: accuracy %.0f%%, coverage %.0f%%, timeliness %.0f%% (mean over %d workloads)\n",
					p, 100*acc/float64(n), 100*cov/float64(n), 100*tim/float64(n), n)
			}
		}
	})
}

// sweepSynth runs the population sweep: count seeded scenarios sampled
// from the default synth space, crossed with every mechanism, summarized
// as per-seed speedup distributions. The -json artifact records every
// scenario's sampled parameters (schema v3 "synth" cell field).
func (s sweeper) sweepSynth(count int, baseSeed uint64) {
	fmt.Printf("Synth population: %d seeded scenarios x all mechanisms (speedup over OoO)\n", count)
	spec := s.spec("synth_population", nil, presim.Modes(), nil)
	spec.Population = &presim.JobPopulation{SpaceName: "default", Count: count}
	if baseSeed != 0 {
		spec.Population.BaseSeed = fmt.Sprintf("%x", baseSeed)
	}
	s.run(spec, func(plan *presim.ExperimentPlan, set *presim.ExperimentSet) {
		points := plan.Points()
		stats := make([][]presim.PopulationStat, len(points))
		for pi := range points {
			stats[pi] = set.PopulationStats(pi)
		}
		presim.PopulationGridTable(points, stats).Write(os.Stdout)
		if s.jsonDir != "" {
			fmt.Printf("  (per-seed parameters recorded in %s/synth_population.json cells[].synth)\n", s.jsonDir)
		}
	})
}

func fatal(err error) {
	pprof.StopCPUProfile() // flush -cpuprofile data; no-op when not profiling
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
