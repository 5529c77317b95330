package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/prefetch"
	"repro/internal/serve/cache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/synth"
)

// membound and population windows. The membound window is the grid the
// Figure-2 sweep runs at; the population window is short so per-cell
// costs carry weight.
var (
	memboundWindow   = sim.Options{WarmupUops: 50_000, MeasureUops: 400_000}
	populationWindow = sim.Options{WarmupUops: 1_000, MeasureUops: 3_000}
)

// populationCount is the number of sampled scenarios per population
// pass: enough that the pass's cost barely depends on which scenarios a
// seed draws.
const populationCount = 256

// memboundMatrix is the Figure-2 traffic: the five memory-bound suite
// proxies under every mechanism. Its inputs are fixed; the seed does not
// change them.
func memboundMatrix(_ int64, win sim.Options) (exp.Matrix, error) {
	m := exp.Matrix{Name: "membound-sweep", Modes: core.Modes(), Options: win}
	for _, name := range []string{"libquantum", "mcf", "milc", "lbm", "omnetpp"} {
		w, err := workload.ByName(name)
		if err != nil {
			return m, err
		}
		m.Workloads = append(m.Workloads, w)
	}
	return m, nil
}

// populationMatrix samples a DefaultSpace population rooted in the seed,
// under OoO and PRE, with hardware prefetching off and adaptive.
func populationMatrix(seed int64, win sim.Options) (exp.Matrix, error) {
	rng := rand.New(rand.NewSource(seed))
	m := exp.Matrix{
		Name:       "population-sweep",
		Modes:      []core.Mode{core.ModeOoO, core.ModePRE},
		Population: &exp.Population{Space: synth.DefaultSpace(), Count: populationCount, BaseSeed: rng.Uint64() | 1},
		Options:    win,
	}
	for _, name := range []string{"no-pf", "adaptive"} {
		v, err := prefetch.VariantByName(name)
		if err != nil {
			return m, err
		}
		m.Points = append(m.Points, exp.Point{Name: name, Apply: func(c *core.Config) { c.ApplyPrefetch(v) }})
	}
	return m, nil
}

// sweep is a matrix-driven workload. Its jobs are the plan's unique
// runs, as exp.ProgressEvent reports them. Each cycle asks for the plan
// twice, as a researcher re-submitting a sweep does: cold, simulating
// every run and storing its result in an in-memory result cache, then
// warm, with every run answered by that cache.
type sweep struct {
	name   string
	matrix func(seed int64, win sim.Options) (exp.Matrix, error)
	window sim.Options
	// spareCPU leaves one CPU out of the cold passes' pool, to the
	// garbage collector and the host-speed probe. Short cells keep the
	// collector busy with per-cell set-up garbage, and with every CPU
	// simulating them the probe runs only when it preempts a worker; its
	// reading then tracked the simulator's speed worse than the raw
	// timings did.
	spareCPU bool
}

// coldWorkers is the cold passes' pool width.
func (sw sweep) coldWorkers(bc *benchCtx) int {
	if sw.spareCPU {
		return max(bc.workers-1, 1)
	}
	return bc.workers
}

func (sw sweep) build(seed int64) (exp.Matrix, *exp.Plan, error) {
	m, err := sw.matrix(seed, sw.window)
	if err != nil {
		return m, nil, err
	}
	p, err := m.Expand()
	return m, p, err
}

// pass is one timed Plan.RunOpts plus results-document write.
type pass struct {
	set      *exp.Set
	seconds  float64 // RunOpts start until the document is written
	runSecs  float64 // RunOpts alone
	sinkSecs float64 // WriteJSON alone
	uops     int64   // warmup + committed over every requested cell
	digest   string
	cellSecs []float64 // ProgressEvent.Seconds of every unique run
	cells    int
	failed   int
	err      error
}

// runPass executes the plan once and checks each cell's commit window.
func runPass(m exp.Matrix, plan *exp.Plan, opts exp.RunOptions) pass {
	var pr pass
	pr.cells = plan.NumCells()
	// RunOpts serializes Progress calls.
	opts.Progress = func(ev exp.ProgressEvent) { pr.cellSecs = append(pr.cellSecs, ev.Seconds) }
	// Collect the previous pass's garbage first, as Go's testing package
	// does before each benchmark, so a pass pays only for collecting its
	// own: otherwise where a cycle's collections fall decides which warm
	// lookups run during marking, and the warm tail with it.
	runtime.GC()
	t0 := hostNow()
	set, err := plan.RunOpts(opts)
	pr.runSecs = since(t0)
	if err != nil {
		pr.err, pr.failed = err, pr.cells
		return pr
	}
	t1 := hostNow()
	h := sha256.New()
	if err := set.WriteJSON(h); err != nil {
		pr.err, pr.failed = err, pr.cells
		return pr
	}
	pr.sinkSecs = since(t1)
	pr.seconds = since(t0)
	pr.set, pr.digest = set, hex.EncodeToString(h.Sum(nil))
	forEachCell(m, plan, func(pi, wi, mi int, _ core.Config) {
		r := set.Result(pi, wi, mi)
		pr.uops += m.Options.WarmupUops + r.Committed
		if !windowOK(r.Committed, m.Options.MeasureUops, m.Modes[mi]) {
			pr.failed++
		}
	})
	return pr
}

// windowOK reports whether a cell committed its measured window to
// within one commit group (Width-1 uops).
func windowOK(committed, window int64, mode core.Mode) bool {
	slack := int64(core.Default(mode).Width - 1)
	return committed >= window-slack && committed <= window+slack
}

// forEachCell visits every matrix cell in expansion order with its fully
// applied configuration, built exactly as Matrix.Expand builds it.
func forEachCell(m exp.Matrix, plan *exp.Plan, fn func(pi, wi, mi int, cfg core.Config)) {
	points := m.Points
	if len(points) == 0 {
		points = []exp.Point{{Name: "default"}}
	}
	for pi, pt := range points {
		for wi := range plan.Workloads() {
			for mi, mode := range m.Modes {
				cfg := core.Default(mode)
				if m.Options.Configure != nil {
					m.Options.Configure(&cfg)
				}
				if pt.Apply != nil {
					pt.Apply(&cfg)
				}
				cfg.Mode = mode
				fn(pi, wi, mi, cfg)
			}
		}
	}
}

// measure is the untraced run: set up, then repeat a cycle until the
// time is up (at least two cycles). A cycle submits the sweep coldEvery
// times, the job mix simd-mixed uses: once cold, simulating every run
// and storing its result in an in-memory result cache, then warm, with
// every run answered by that cache; between the cold and the warm
// passes the set-up is repeated. Every pass's results document must
// hash like the first cold pass's. The host-speed probe runs throughout,
// and every timing of a cycle is reported at the reference host speed
// the probe measured over that cycle.
func (sw sweep) measure(bc *benchCtx) (outcome, error) {
	m, plan, err := sw.build(bc.seed)
	if err != nil {
		return outcome{}, err
	}
	results, err := cache.New(plan.NumUnique(), "")
	if err != nil {
		return outcome{}, err
	}
	hp, err := startHostProbe()
	if err != nil {
		return outcome{}, err
	}
	cycles, err := sw.cycles(bc, m, plan, results, hp)
	var rss float64
	if err == nil {
		rss, err = hp.rssMB()
	}
	if err := errors.Join(err, hp.close()); err != nil {
		return outcome{}, err
	}
	rep := newReport()
	out := outcome{rep: rep}
	digest := cycles[0].cold.digest
	var setups, rates, speeds, coldMs, warmMs []float64
	var jobs int
	var passSecs float64
	for i, c := range cycles {
		speeds = append(speeds, c.speed)
		setups = append(setups, c.setupSecs*c.speed)
		failed := 0
		for _, p := range append([]pass{c.cold}, c.warm...) {
			out.attempted += p.cells
			switch {
			case p.err != nil:
				rep.notef("cycle %d: %v", i, p.err)
			case p.digest != digest:
				p.failed = p.cells
				rep.notef("cycle %d: results digest %s differs from the first cold pass's %s", i, p.digest, digest)
			}
			out.failed += p.failed
			failed += p.failed
		}
		if failed > 0 {
			continue
		}
		rates = append(rates, stats.Ratio(float64(c.cold.uops), c.cold.seconds*c.speed))
		coldMs = appendMs(coldMs, c.cold.cellSecs, c.speed)
		jobs += len(c.cold.cellSecs)
		passSecs += c.cold.seconds * c.speed
		for _, p := range c.warm {
			warmMs = appendMs(warmMs, p.cellSecs, c.speed)
			jobs += len(p.cellSecs)
			passSecs += p.seconds * c.speed
		}
	}
	rep.notef("workload %s: %d unique runs / %d cells per pass, %d cycles of 1 cold and %d warm passes, %d sim workers + the host-speed probe",
		sw.name, plan.NumUnique(), plan.NumCells(), len(cycles), coldEvery-1, sw.coldWorkers(bc))
	rep.notef("host speed per cycle, relative to the reference host: %s", fmtSpeeds(speeds))
	rep.notef("results sha256 %s", digest)
	rep.notef("tails: job_warm_p99_ms has %d warm jobs beyond it, job_cold_p90_ms %d cold jobs", beyond(warmMs, 0.99), beyond(coldMs, 0.9))
	rep.set("setup_s", stats.Median(setups), len(setups))
	rep.set("sim_uops_per_s", stats.Median(rates), len(rates))
	rep.set("jobs_per_s", stats.Ratio(float64(jobs), passSecs), jobs)
	rep.set("job_warm_p50_ms", stats.Median(warmMs), len(warmMs))
	rep.set("job_warm_p99_ms", percentile(warmMs, 0.99), len(warmMs))
	rep.set("job_cold_p50_ms", stats.Median(coldMs), len(coldMs))
	rep.set("job_cold_p90_ms", percentile(coldMs, 0.9), len(coldMs))
	rep.set("peak_rss_mb", rss, len(cycles))
	return out, nil
}

// cycle is one cold pass, set-up and coldEvery-1 warm passes, with the
// host speed the probe measured across them.
type cycle struct {
	cold      pass
	warm      []pass
	setupSecs float64
	speed     float64
}

// cycles runs the timed cycles.
func (sw sweep) cycles(bc *benchCtx, m exp.Matrix, plan *exp.Plan, results *cache.Cache, hp *hostProbe) ([]cycle, error) {
	// A warm pass simulates nothing, so it runs on one worker, as
	// simd-mixed's server answers a cached spec on its job's one sim
	// worker.
	coldOpts := exp.RunOptions{Workers: sw.coldWorkers(bc), Store: results.Put}
	warmOpts := exp.RunOptions{Workers: 1, Lookup: results.Get}
	var cycles []cycle
	t0 := hostNow()
	for len(cycles) < 2 || since(t0) < bc.seconds {
		var c cycle
		m0 := hp.mark()
		c.cold = runPass(m, plan, coldOpts)
		// Set-up is repeated once per cycle, outside the timed passes,
		// so its median samples the host across the whole run.
		t1 := hostNow()
		if _, _, err := sw.build(bc.seed); err != nil {
			return nil, err
		}
		c.setupSecs = since(t1)
		// The warm passes are cache lookups of tens of microseconds;
		// the probe pauses while they run, so their tail is the
		// lookups' own.
		hp.pause()
		for range coldEvery - 1 {
			p := runPass(m, plan, warmOpts)
			if p.err == nil && p.set.Meta().CacheHits != plan.NumUnique() {
				p.err = fmt.Errorf("warm pass simulated %d of %d runs", plan.NumUnique()-p.set.Meta().CacheHits, plan.NumUnique())
				p.failed = p.cells
			}
			p.set = nil // keep a run's memory independent of its cycle count
			c.warm = append(c.warm, p)
		}
		hp.resume()
		c.cold.set = nil
		var err error
		if c.speed, err = speed(m0, hp.mark()); err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
	}
	return cycles, nil
}

// fmtSpeeds renders host speeds to two decimals.
func fmtSpeeds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, " ")
}

// appendMs appends secs, converted to milliseconds at the reference
// host speed, to ms.
func appendMs(ms, secs []float64, speed float64) []float64 {
	for _, s := range secs {
		ms = append(ms, 1e3*s*speed)
	}
	return ms
}
