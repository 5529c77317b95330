package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/exp/pool"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workload"
	"repro/internal/workload/synth"
)

// Counter indices of one traced cell's measured-window counters.
const (
	kCycles = iota
	kSkipped
	kCommitted
	kDispatched
	kRenamed
	kFetched
	kMispredicts
	kEntries
	kEntriesSkipped
	kRACycles
	kRAExecuted
	kPrefetches
	kPrefetchFills
	kPrefetchUseful
	kFullWindowStall
	kL1DAccess // the four cache levels, in cacheLevels order
	kL1IAccess
	kL2Access
	kL3Access
	kL1DHits
	kL1IHits
	kL2Hits
	kL3Hits
	kL1DMisses
	kL1IMisses
	kL2Misses
	kL3Misses
	kL1DMSHRStalls
	kDRAMReads
	kDRAMWrites
	kRowHits
	kRowOpens
	kPFIssued
	kPFUseful
	kPFFills
	kPFDemandMisses
	numCounters = kPFDemandMisses + 1
)

var cacheLevels = []string{"l1d", "l1i", "l2", "l3"}

// counters are one cell's (or an aggregate's) measured-window counts.
type counters [numCounters]int64

func (k *counters) add(o counters) {
	for i := range k {
		k[i] += o[i]
	}
}

// readCounters reads the measured window through the core's public
// accessors.
func readCounters(c *core.Core) counters {
	cs := c.Stats()
	h := c.Hierarchy()
	var k counters
	k[kCycles], k[kSkipped], k[kCommitted] = cs.Cycles, cs.SkippedAhead, cs.Committed
	k[kDispatched], k[kRenamed], k[kFetched] = cs.Dispatched, c.Renamer().Stats().Renamed, c.FetchUnit().Stats().FetchedUops
	k[kMispredicts], k[kEntries], k[kEntriesSkipped] = cs.BranchMispredicts, cs.Entries, cs.EntriesSkipped
	k[kRACycles], k[kRAExecuted], k[kPrefetches] = cs.RunaheadCycles, cs.RunaheadExecuted, cs.Prefetches
	k[kFullWindowStall] = cs.FullWindowStallCycles
	for i, lv := range []*cache.Cache{h.L1D(), h.L1I(), h.L2(), h.L3()} {
		st := lv.Stats()
		k[kL1DAccess+i], k[kL1DHits+i], k[kL1DMisses+i] = st.Accesses, st.Hits, st.Misses
	}
	l1d := h.L1D().Stats()
	k[kPrefetchFills], k[kPrefetchUseful], k[kL1DMSHRStalls] = l1d.PrefetchFills, l1d.PrefetchUseful, l1d.MSHRStalls
	dr := h.DRAM().Stats()
	k[kDRAMReads], k[kDRAMWrites] = dr.Reads, dr.Writes
	k[kRowHits], k[kRowOpens] = dr.RowHits, dr.RowMisses+dr.RowConflict
	pf := h.PFStats()
	k[kPFIssued], k[kPFUseful], k[kPFFills], k[kPFDemandMisses] = pf.Issued, pf.Useful, pf.Fills, pf.DemandMisses
	return k
}

// mismatches lists the counters that differ from the untraced Result of
// the same cell.
func (k counters) mismatches(r sim.Result) []string {
	var bad []string
	for _, c := range []struct {
		name             string
		traced, untraced int64
	}{
		{"Cycles", k[kCycles], r.Cycles},
		{"Committed", k[kCommitted], r.Committed},
		{"L1DHits", k[kL1DHits], r.L1DHits},
		{"L1DMisses", k[kL1DMisses], r.L1DMisses},
		{"L2Hits", k[kL2Hits], r.L2Hits},
		{"L2Misses", k[kL2Misses], r.L2Misses},
		{"L3Hits", k[kL3Hits], r.L3Hits},
		{"L3Misses", k[kL3Misses], r.L3Misses},
		{"DRAMReads", k[kDRAMReads], r.DRAMReads},
		{"DRAMWrites", k[kDRAMWrites], r.DRAMWrites},
		{"Entries", k[kEntries], r.Entries},
		{"EntriesSkipped", k[kEntriesSkipped], r.EntriesSkipped},
		{"RunaheadCycles", k[kRACycles], r.RunaheadCycles},
		{"Prefetches", k[kPrefetches], r.Prefetches},
		{"PrefetchFills", k[kPrefetchFills], r.PrefetchFills},
		{"PrefetchUseful", k[kPrefetchUseful], r.PrefetchUseful},
		{"FullWindowStall", k[kFullWindowStall], r.FullWindowStall},
		{"BranchMispredicts", k[kMispredicts], r.BranchMispredicts},
		{"HWPrefIssued", k[kPFIssued], r.HWPrefIssued},
		{"HWPrefUseful", k[kPFUseful], r.HWPrefUseful},
		{"HWPrefFills", k[kPFFills], r.HWPrefFills},
	} {
		if c.traced != c.untraced {
			bad = append(bad, fmt.Sprintf("%s traced %d untraced %d", c.name, c.traced, c.untraced))
		}
	}
	return bad
}

// uniqueCell is one deduplicated simulation, driven through the public
// calls sim.Run is made of.
type uniqueCell struct {
	point string
	mode  core.Mode
	w     workload.Workload
	cfg   core.Config
	cells [][3]int // (point, workload, mode) of every cell sharing the run
	k     counters
	err   error
}

// uniqueCells deduplicates the matrix's cells on their CellKey, as
// Matrix.Expand does.
func uniqueCells(m exp.Matrix, plan *exp.Plan) ([]*uniqueCell, error) {
	ws, points := plan.Workloads(), plan.Points()
	byKey := make(map[string]*uniqueCell)
	var out []*uniqueCell
	forEachCell(m, plan, func(pi, wi, mi int, cfg core.Config) {
		key := exp.CellKeyFor(ws[wi].Name, plan.SynthParams(wi), m.Options, cfg).String()
		u := byKey[key]
		if u == nil {
			u = &uniqueCell{point: points[pi], mode: m.Modes[mi], w: ws[wi], cfg: cfg}
			byKey[key] = u
			out = append(out, u)
		}
		u.cells = append(u.cells, [3]int{pi, wi, mi})
	})
	if len(out) != plan.NumUnique() {
		return nil, fmt.Errorf("traced cells: %d unique keys, plan has %d unique runs", len(out), plan.NumUnique())
	}
	return out, nil
}

// run simulates the cell the way sim.Run does, with a span around each
// call. Spans of the cell share group.
func (u *uniqueCell) run(win sim.Options, tr *tracer, group int) {
	defer func() {
		if r := recover(); r != nil {
			u.err = fmt.Errorf("%s/%v panicked: %v", u.w.Name, u.mode, r)
		}
	}()
	root := tr.begin("cell", group, -1)
	defer tr.end(root)
	var gen trace.Generator
	tr.do("workload.new", group, root, func() { gen = u.w.New() })
	var c *core.Core
	tr.do("core.new", group, root, func() { c, u.err = core.New(u.cfg, gen) })
	if u.err != nil {
		return
	}
	if win.WarmupUops > 0 {
		tr.do("core.warmup", group, root, func() { c.Run(win.WarmupUops) })
	}
	tr.do("core.reset", group, root, c.ResetStats)
	tr.do("core.run", group, root, func() { c.Run(win.MeasureUops) })
	tr.do("core.stats", group, root, func() { u.k = readCounters(c) })
}

// drainNanos times draining a fresh generator of w for n uops.
func drainNanos(w workload.Workload, n int64, buf []uarch.Uop) int64 {
	gen := w.New()
	t0 := hostNow()
	if bg, ok := gen.(trace.BlockGenerator); ok {
		for left := n; left > 0; {
			k := min(left, int64(len(buf)))
			bg.NextBlock(buf[:k])
			left -= k
		}
	} else {
		for i := int64(0); i < n; i++ {
			gen.Next(&buf[0])
		}
	}
	return hostNow().Sub(t0).Nanoseconds()
}

// traced is the per-layer run: one untraced reference pass through
// Plan.RunOpts, then every unique cell again through the public calls
// sim.Run is made of: once with spans and a CPU profile, between two
// untraced passes of the same cells. Each traced cell's counters must
// equal the reference Result of every cell it stands for.
func (sw sweep) traced(bc *benchCtx) (outcome, error) {
	tr := newTracer()
	rep := newReport()
	m, err := sw.matrix(bc.seed, sw.window)
	if err != nil {
		return outcome{}, err
	}
	var plan *exp.Plan
	tr.do("exp.expand", 0, -1, func() { plan, err = m.Expand() })
	if err != nil {
		return outcome{}, err
	}
	if pop := m.Population; pop != nil {
		for i := 0; i < pop.Count; i++ {
			tr.do("synth.sample", 0, -1, func() { _, err = pop.Space.Sample(synth.NthSeed(pop.BaseSeed, i)) })
			if err != nil {
				return outcome{}, err
			}
		}
	}
	ref := runPass(m, plan, exp.RunOptions{Workers: bc.workers})
	if ref.err != nil {
		return outcome{}, fmt.Errorf("reference pass: %w", ref.err)
	}
	cells, err := uniqueCells(m, plan)
	if err != nil {
		return outcome{}, err
	}

	// The same cells untraced, right before and right after the traced
	// pass, are the denominator of trace.overhead_frac; taking both
	// cancels a host speed that drifts steadily across the three passes.
	// They run on copies, so only the traced pass sets each cell's
	// counters.
	plainPass := func() float64 {
		t0 := hostNow()
		pool.Run(len(cells), bc.workers, func(i int) {
			c := *cells[i]
			c.run(m.Options, nil, i+1)
		})
		return since(t0)
	}
	plainSecs := plainPass()

	prof, err := startProfile(filepath.Join(bc.workdir, sw.name+".cpu.pprof"))
	if err != nil {
		return outcome{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := hostNow()
	pool.Run(len(cells), bc.workers, func(i int) { cells[i].run(m.Options, tr, i+1) })
	tracedSecs := since(t0)
	runtime.ReadMemStats(&ms1)
	if err := prof.stop(); err != nil {
		return outcome{}, err
	}
	plainSecs = (plainSecs + plainPass()) / 2

	out := outcome{rep: rep, attempted: ref.cells + len(cells), failed: ref.failed}
	type agg struct {
		k counters
		n int
	}
	byMode := make(map[string]*agg)
	byPoint := make(map[string]*agg)
	var all agg
	bucket := func(m map[string]*agg, key string) *agg {
		if m[key] == nil {
			m[key] = new(agg)
		}
		return m[key]
	}
	var simUops int64
	for _, u := range cells {
		var bad []string
		if u.err != nil {
			bad = append(bad, u.err.Error())
		}
		for _, c := range u.cells {
			bad = append(bad, u.k.mismatches(ref.set.Result(c[0], c[1], c[2]))...)
		}
		if len(bad) > 0 {
			out.failed++
			rep.notef("traced cell %s/%s/%v differs from its untraced Result: %v", u.point, u.w.Name, u.mode, bad)
			continue
		}
		for _, a := range []*agg{bucket(byMode, modeSuffix(u.mode.String())), bucket(byPoint, u.point), &all} {
			a.k.add(u.k)
			a.n++
		}
		simUops += m.Options.WarmupUops + u.k[kCommitted]
	}

	var drainNs, drainUops int64
	buf := make([]uarch.Uop, 512)
	for _, u := range cells {
		n := m.Options.WarmupUops + m.Options.MeasureUops
		drainNs += drainNanos(u.w, n, buf)
		drainUops += n
	}

	// Self time per span name, and per (name, mode) for the cell spans.
	selfNs, selfN := tr.selfByName(func(s span) string { return s.Name })
	modeNs, _ := tr.selfByName(func(s span) string {
		if s.Group == 0 {
			return s.Name
		}
		return s.Name + "|" + modeSuffix(cells[s.Group-1].mode.String())
	})
	perCallMs := func(name string) (float64, int) {
		return stats.Ratio(float64(selfNs[name]), float64(selfN[name])) / 1e6, selfN[name]
	}

	for _, mode := range core.Modes() {
		s := modeSuffix(mode.String())
		a := bucket(byMode, s)
		k, n := &a.k, a.n
		runNs := float64(modeNs["core.run|"+s])
		rep.set("core.ns_per_uop."+s, stats.Ratio(runNs, float64(k[kCommitted])), n)
		rep.set("core.ns_per_stepped_cycle."+s, stats.Ratio(runNs, float64(k[kCycles]-k[kSkipped])), n)
		rep.set("core.skip_frac."+s, stats.Ratio(float64(k[kSkipped]), float64(k[kCycles])), n)
		rep.set("core.dispatched_per_uop."+s, stats.Ratio(float64(k[kDispatched]), float64(k[kCommitted])), n)
		rep.set("core.ipc."+s, stats.Ratio(float64(k[kCommitted]), float64(k[kCycles])), n)
		rep.set("frontend.fetched_per_uop."+s, stats.Ratio(float64(k[kFetched]), float64(k[kCommitted])), n)
		rep.set("frontend.mispredicts_per_kuop."+s, stats.PerKilo(k[kMispredicts], k[kCommitted]), n)
		rep.set("rename.renamed_per_uop."+s, stats.Ratio(float64(k[kRenamed]), float64(k[kCommitted])), n)
		if mode == core.ModeOoO {
			continue
		}
		rep.set("runahead.entries_per_kuop."+s, stats.PerKilo(k[kEntries], k[kCommitted]), n)
		rep.set("runahead.cycles_frac."+s, stats.Ratio(float64(k[kRACycles]), float64(k[kCycles])), n)
		rep.set("runahead.executed_per_uop."+s, stats.Ratio(float64(k[kRAExecuted]), float64(k[kCommitted])), n)
		rep.set("runahead.prefetch_useful_frac."+s, stats.Ratio(float64(k[kPrefetchUseful]), float64(k[kPrefetches])), n)
		if n > 0 {
			rep.notef("runahead %-9s prefetches issued %d, useful %d", s, k[kPrefetches], k[kPrefetchUseful])
		}
	}
	ms, n := perCallMs("core.new")
	rep.set("core.new_ms", ms, n)

	nc := all.n
	for i, lv := range cacheLevels {
		rep.set("cache."+lv+".accesses_per_uop", stats.Ratio(float64(all.k[kL1DAccess+i]), float64(all.k[kCommitted])), nc)
		rep.set("cache."+lv+".hit_frac", stats.Ratio(float64(all.k[kL1DHits+i]), float64(all.k[kL1DHits+i]+all.k[kL1DMisses+i])), nc)
	}
	rep.set("cache.l1d.mshr_stalls_per_kuop", stats.PerKilo(all.k[kL1DMSHRStalls], all.k[kCommitted]), nc)
	rep.set("dram.accesses_per_kuop", stats.PerKilo(all.k[kDRAMReads]+all.k[kDRAMWrites], all.k[kCommitted]), nc)
	rep.set("dram.row_hit_frac", stats.Ratio(float64(all.k[kRowHits]), float64(all.k[kRowHits]+all.k[kRowOpens])), nc)

	if m.Population != nil {
		for _, pt := range plan.Points() {
			a := bucket(byPoint, pt)
			k := &a.k
			rep.set("prefetch.issued_per_kuop."+pt, stats.PerKilo(k[kPFIssued], k[kCommitted]), a.n)
			rep.set("prefetch.accuracy."+pt, stats.Ratio(float64(k[kPFUseful]), float64(k[kPFIssued])), a.n)
			rep.set("prefetch.coverage."+pt, stats.Ratio(float64(k[kPFUseful]), float64(k[kPFUseful]+k[kPFDemandMisses])), a.n)
		}
		ms, n := perCallMs("synth.sample")
		rep.set("synth.sample_ms", ms, n)
	}

	ms, n = perCallMs("workload.new")
	rep.set("workload.new_ms", ms, n)
	rep.set("workload.ns_per_uop", stats.Ratio(float64(drainNs), float64(drainUops)), nc)

	ms, n = perCallMs("exp.expand")
	rep.set("exp.expand_ms", ms, n)
	rep.set("exp.dedup_ratio", stats.Ratio(float64(plan.NumUnique()), float64(plan.NumCells())), plan.NumCells())
	rep.set("exp.cell_p50_ms", 1e3*stats.Median(ref.cellSecs), len(ref.cellSecs))
	rep.set("exp.cell_max_ms", 1e3*percentile(ref.cellSecs, 1), len(ref.cellSecs))
	var cellSum float64
	for _, s := range ref.cellSecs {
		cellSum += s
	}
	rep.set("exp.pool_busy_frac", stats.Ratio(cellSum, float64(ref.set.Meta().EffectiveWorkers)*ref.runSecs), len(ref.cellSecs))
	rep.set("exp.sink_ms", 1e3*ref.sinkSecs, 1)

	if err := setRuntime(rep, prof.path, &ms0, &ms1, simUops); err != nil {
		return outcome{}, err
	}
	rep.set("trace.overhead_frac", tracedSecs/plainSecs-1, 1)

	rep.notef("workload %s traced: %d unique runs / %d cells, reference pass %.3f s, untraced cell passes %.3f s (mean), traced cell pass %.3f s, workers %d",
		sw.name, plan.NumUnique(), plan.NumCells(), ref.runSecs, plainSecs, tracedSecs, bc.workers)
	rep.notef("results sha256 %s", ref.digest)
	rep.notes = append(rep.notes, tr.selfTable()...)
	return out, tr.write(filepath.Join(bc.workdir, sw.name+".spans.jsonl"))
}

// setRuntime records the profile's per-layer self time and the runtime
// counters of a traced pass that simulated or delivered uops.
func setRuntime(rep *report, profile string, ms0, ms1 *runtime.MemStats, uops int64) error {
	fracs, lines, err := layerSelfFrac(profile)
	if err != nil {
		return err
	}
	for _, l := range selfFracLayers {
		rep.set(l+".self_frac", fracs[l], 1)
	}
	rep.notes = append(rep.notes, lines...)
	rep.set("runtime.alloc_bytes_per_uop", stats.Ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(uops)), 1)
	rep.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), 1)
	return nil
}
