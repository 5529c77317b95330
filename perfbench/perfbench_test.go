package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json and testdata/layer_counts.json")

// shrunk windows keep the tests fast; the cell grids are the workloads'.
var (
	shrunkMembound   = sweep{name: "membound-sweep", matrix: memboundMatrix, window: sim.Options{WarmupUops: 5_000, MeasureUops: 20_000}}
	shrunkPopulation = sweep{name: "population-sweep", matrix: populationMatrix, window: sim.Options{WarmupUops: 2_000, MeasureUops: 6_000}}
)

func testCatalog(t *testing.T) *catalog {
	t.Helper()
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestBenchmarkJSONInSync pins BENCHMARK.json to the metric catalogue it
// is rendered from. Regenerate with: go test -run BenchmarkJSON -update
func TestBenchmarkJSONInSync(t *testing.T) {
	got, err := testCatalog(t).benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of date with metrics.json; rerun with -update")
	}
}

// TestCatalogShape checks the catalogue against the benchmark file
// format: name and unit alphabets, unique names, bounds, set-up metric.
func TestCatalogShape(t *testing.T) {
	cat := testCatalog(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	runners := workloads()
	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range cat.Workloads {
		use(w.Name)
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
		if len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range cat.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (%v < %v)", setupBound, maxBound)
	}
	layer := cat.metrics(true)
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics, want at most 128", len(layer))
	}
	for _, m := range append(cat.metrics(false), layer...) {
		if m.measuredOn == nil {
			continue
		}
		use(m.name)
		for _, w := range m.measuredOn {
			if !cat.hasWorkload(w) {
				t.Errorf("%s: measured_on names unknown workload %q", m.name, w)
			}
		}
	}
	for _, m := range append(cat.EndToEnd, cat.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestDigestIndependentOfWorkers runs each sweep on a shrunk window at
// one worker and at one per CPU: the results documents must hash alike
// and every cell must commit its window.
func TestDigestIndependentOfWorkers(t *testing.T) {
	for _, sw := range []sweep{shrunkMembound, shrunkPopulation} {
		m, plan, err := sw.build(7)
		if err != nil {
			t.Fatal(err)
		}
		one := runPass(m, plan, exp.RunOptions{Workers: 1})
		many := runPass(m, plan, exp.RunOptions{Workers: max(runtime.NumCPU(), 2)})
		for _, p := range []pass{one, many} {
			if p.err != nil || p.failed != 0 {
				t.Fatalf("%s: pass failed %d cells: %v", sw.name, p.failed, p.err)
			}
		}
		if one.digest != many.digest {
			t.Errorf("%s: digest %s at 1 worker, %s at %d", sw.name, one.digest, many.digest, runtime.NumCPU())
		}
	}
}

// TestQuickstartCellMatchesGolden drives the quickstart cells (libquantum
// under OoO and PRE) through both of the benchmark's paths — exp.Matrix
// and the traced public-call sequence — and checks them against the
// repository's golden numbers.
func TestQuickstartCellMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "testdata", "quickstart_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		WarmupUops    int64   `json:"warmup_uops"`
		MeasureUops   int64   `json:"measure_uops"`
		BaseIPC       float64 `json:"base_ipc"`
		BaseL3MPKI    float64 `json:"base_l3_mpki"`
		PREIPC        float64 `json:"pre_ipc"`
		PREL3MPKI     float64 `json:"pre_l3_mpki"`
		PREEntries    int64   `json:"pre_runahead_entries"`
		PREPrefetches int64   `json:"pre_prefetches"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	m := exp.Matrix{
		Workloads: []workload.Workload{w},
		Modes:     []core.Mode{core.ModeOoO, core.ModePRE},
		Options:   sim.Options{WarmupUops: golden.WarmupUops, MeasureUops: golden.MeasureUops},
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p := runPass(m, plan, exp.RunOptions{Workers: 2})
	if p.err != nil || p.failed != 0 {
		t.Fatalf("pass failed %d cells: %v", p.failed, p.err)
	}
	base, pre := p.set.Result(0, 0, 0), p.set.Result(0, 0, 1)
	if base.IPC != golden.BaseIPC || base.L3MPKI != golden.BaseL3MPKI {
		t.Errorf("OoO IPC %v L3 MPKI %v, golden %v %v", base.IPC, base.L3MPKI, golden.BaseIPC, golden.BaseL3MPKI)
	}
	if pre.IPC != golden.PREIPC || pre.L3MPKI != golden.PREL3MPKI || pre.Entries != golden.PREEntries || pre.Prefetches != golden.PREPrefetches {
		t.Errorf("PRE IPC %v L3 MPKI %v entries %d prefetches %d, golden %v %v %d %d",
			pre.IPC, pre.L3MPKI, pre.Entries, pre.Prefetches, golden.PREIPC, golden.PREL3MPKI, golden.PREEntries, golden.PREPrefetches)
	}
	cells, err := uniqueCells(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range cells {
		u.run(m.Options, newTracer(), 1)
		if u.err != nil {
			t.Fatal(u.err)
		}
		c := u.cells[0]
		if bad := u.k.mismatches(p.set.Result(c[0], c[1], c[2])); len(bad) > 0 {
			t.Errorf("traced %v cell differs from its Result: %v", u.mode, bad)
		}
	}
}

// TestLayerCountsDeterministic runs the traced per-layer measurement
// twice per sweep on a shrunk window and requires every deterministic
// count to repeat exactly, and to equal the pinned values in
// testdata/layer_counts.json, so changes can cite them as exact counts.
// After an intended model change, regenerate with:
//
//	go test -run LayerCounts -update
func TestLayerCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four traced sweeps")
	}
	cat := testCatalog(t)
	got := make(map[string]map[string]float64)
	for _, sw := range []sweep{shrunkMembound, shrunkPopulation} {
		var runs [2]map[string]float64
		for i := range runs {
			bc := &benchCtx{seed: 11, seconds: 1, workers: 2, workdir: t.TempDir()}
			out, err := sw.traced(bc)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Fatalf("%s: %d of %d traced operations failed: %v", sw.name, out.failed, out.attempted, out.rep.notes)
			}
			runs[i] = make(map[string]float64)
			for _, s := range cat.metrics(true) {
				if s.deterministic && slices.Contains(s.measuredOn, sw.name) {
					runs[i][s.name] = out.rep.vals[s.name].v
				}
			}
		}
		for name, v := range runs[0] {
			if runs[1][name] != v {
				t.Errorf("%s %s: %v then %v for the same seed", sw.name, name, v, runs[1][name])
			}
		}
		got[sw.name] = runs[0]
	}
	path := filepath.Join("testdata", "layer_counts.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for wl, vals := range want {
		for name, v := range vals {
			if got[wl][name] != v {
				t.Errorf("%s %s: %v, pinned %v", wl, name, got[wl][name], v)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*Core).issueStage":               "core",
		"repro/internal/workload/synth.(*phasedGen).NextBlock": "workload",
		"repro/internal/serve/cache.(*Cache).Get":              "serve",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKey":              "runtime",
		"net/http.(*conn).serve":                               "other",
		"main.main":                                            "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfNanos(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 1, Start: 15, End: 20},
	}}
	if got, want := tr.selfNanos(), []int64{50, 25, 30, 5}; !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
