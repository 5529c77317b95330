package core

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// aluGen is a pure-ALU loop with a predictable branch: IPC should approach
// the pipeline width once warm.
type aluGen struct{ n uint64 }

func (g *aluGen) Name() string { return "alu" }
func (g *aluGen) Next(u *uarch.Uop) {
	slot := g.n % 8
	u.PC = 0x400000 + slot*4
	if slot == 7 {
		*u = uarch.Uop{PC: u.PC, Class: uarch.ClassBranch, Taken: true, Target: 0x400000,
			Src1: uarch.IntReg(0)}
	} else {
		// Independent ALU ops across 8 registers: plenty of ILP.
		*u = uarch.Uop{PC: u.PC, Class: uarch.ClassIntAlu,
			Dst: uarch.IntReg(int(slot)), Src1: uarch.IntReg(int(slot))}
	}
	g.n++
}

// serialLoadGen is a single pointer chase: every load depends on the
// previous one and misses the LLC.
type serialLoadGen struct {
	n     uint64
	state uint64
}

func (g *serialLoadGen) Name() string { return "serial-load" }
func (g *serialLoadGen) Next(u *uarch.Uop) {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	line := g.state & (1<<18 - 1)
	*u = uarch.Uop{PC: 0x500000, Class: uarch.ClassLoad,
		Dst: uarch.IntReg(1), Src1: uarch.IntReg(1),
		Addr: 1<<32 + line*64, Size: 8}
	g.n++
}

func newCore(t *testing.T, mode Mode, gen trace.Generator) *Core {
	t.Helper()
	c, err := New(Default(mode), gen)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func run(t *testing.T, c *Core, n int64) {
	t.Helper()
	c.Run(n)
}

func TestConfigValidation(t *testing.T) {
	good := Default(ModeOoO)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := Default(ModeOoO)
	bad.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	bad = Default(ModeOoO)
	bad.FreeExit = true
	if err := bad.Validate(); err == nil {
		t.Error("FreeExit outside ModeRA accepted")
	}
	bad = Default(ModeRA)
	bad.FreeExit = true
	if err := bad.Validate(); err != nil {
		t.Errorf("FreeExit with ModeRA rejected: %v", err)
	}
}

func TestModeStringsAndParse(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v failed: %v %v", m, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

// Canonical cannot know which knobs an unknown mode reads, so it must
// keep them all: the dedup key then errs toward distinct runs.
func TestCanonicalKeepsUnknownMode(t *testing.T) {
	cfg := Default(ModePRE)
	cfg.Mode = numModes
	cfg.FreeExit = true
	if got := cfg.Canonical(); got != cfg {
		t.Errorf("Canonical changed an unknown-mode config:\ngot  %+v\nwant %+v", got, cfg)
	}
}

func TestALULoopIPC(t *testing.T) {
	c := newCore(t, ModeOoO, &aluGen{})
	run(t, c, 2000) // warm up
	c.ResetStats()
	run(t, c, 20000)
	ipc := c.Stats().IPC()
	if ipc < 3.0 {
		t.Errorf("ALU-loop IPC = %.2f, want near width 4", ipc)
	}
	if c.Stats().Entries != 0 {
		t.Error("OoO mode must never enter runahead")
	}
}

func TestSerialLoadLatencyBound(t *testing.T) {
	c := newCore(t, ModeOoO, &serialLoadGen{state: 7})
	run(t, c, 50)
	c.ResetStats()
	run(t, c, 200)
	// Every load misses to DRAM (~200 cycles) serially.
	cpi := float64(c.Stats().Cycles) / float64(c.Stats().Committed)
	if cpi < 100 {
		t.Errorf("serial DRAM chase CPI = %.0f, want > 100", cpi)
	}
}

func TestFullWindowStallsDetected(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModeOoO, w.New())
	run(t, c, 5000)
	c.ResetStats()
	run(t, c, 30000)
	if c.Stats().FullWindowStallCycles == 0 {
		t.Error("memory-bound workload must hit full-window stalls")
	}
}

func TestDeterminism(t *testing.T) {
	for _, mode := range Modes() {
		w, _ := workload.ByName("libquantum")
		c1 := newCore(t, mode, w.New())
		c2 := newCore(t, mode, w.New())
		run(t, c1, 20000)
		run(t, c2, 20000)
		if c1.Now() != c2.Now() {
			t.Errorf("%v: nondeterministic cycle counts %d vs %d", mode, c1.Now(), c2.Now())
		}
	}
}

func TestRAEntersAndExits(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModeRA, w.New())
	run(t, c, 50000)
	s := c.Stats()
	if s.Entries == 0 {
		t.Fatal("RA never entered runahead on a memory-bound workload")
	}
	if s.Intervals.Count() != s.Entries {
		t.Errorf("intervals (%d) != entries (%d)", s.Intervals.Count(), s.Entries)
	}
	if s.Prefetches == 0 {
		t.Error("RA issued no prefetches")
	}
	if s.PseudoRetired == 0 {
		t.Error("RA pseudo-retired nothing")
	}
	if c.InRunahead() && s.RunaheadCycles == 0 {
		t.Error("runahead cycles not counted")
	}
}

func TestRABeatsOoOOnStreaming(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	measure := func(mode Mode) float64 {
		c := newCore(t, mode, w.New())
		run(t, c, 10000)
		c.ResetStats()
		run(t, c, 60000)
		return c.Stats().IPC()
	}
	base := measure(ModeOoO)
	ra := measure(ModeRA)
	if ra <= base {
		t.Errorf("RA IPC %.3f must beat OoO %.3f on streaming", ra, base)
	}
}

func TestRARefillPenaltyMeasured(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModeRA, w.New())
	run(t, c, 60000)
	s := c.Stats()
	if s.RefillPenalty.Count() == 0 {
		t.Fatal("no refill penalties measured")
	}
	mean := s.RefillPenalty.Mean()
	// Paper's estimate is ~56 cycles (8 FE + 48 ROB refill); our measured
	// definition (exit to first commit) should be the same order.
	if mean < 8 || mean > 300 {
		t.Errorf("mean refill penalty %.1f outside plausible range", mean)
	}
}

func TestRABufferExtractsAndReplays(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModeRABuffer, w.New())
	run(t, c, 50000)
	s := c.Stats()
	if s.Entries == 0 {
		t.Fatal("RA-buffer never entered runahead")
	}
	if s.Prefetches == 0 {
		t.Error("RA-buffer replay issued no prefetches")
	}
}

func TestPREEntersWithoutFlushing(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModePRE, w.New())
	run(t, c, 50000)
	s := c.Stats()
	if s.Entries == 0 {
		t.Fatal("PRE never entered runahead")
	}
	if s.PseudoRetired != 0 {
		t.Error("PRE must not pseudo-retire (ROB preserved)")
	}
	if c.SST().Len() == 0 {
		t.Error("SST learned nothing")
	}
	if s.Prefetches == 0 {
		t.Error("PRE issued no prefetches")
	}
	if s.RefillPenalty.Count() != 0 {
		t.Error("PRE must not incur flush-refill penalties")
	}
}

func TestPRESSTLearnsSlice(t *testing.T) {
	// libquantum's slice is {index add, load}: after some episodes the SST
	// must contain at least the load PC and its producer add PC.
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModePRE, w.New())
	run(t, c, 50000)
	if c.Stats().Entries == 0 {
		t.Skip("no runahead episodes; cannot check learning")
	}
	if c.SST().Len() < 2 {
		t.Errorf("SST has %d entries, want at least the load+add slice", c.SST().Len())
	}
}

func TestPREEMQRuns(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModePREEMQ, w.New())
	run(t, c, 50000)
	s := c.Stats()
	if s.Entries == 0 {
		t.Fatal("PRE+EMQ never entered runahead")
	}
	if s.EMQDispatched == 0 {
		t.Error("EMQ re-dispatched nothing")
	}
}

func TestPREInvokesMoreOftenThanRA(t *testing.T) {
	// Section 5.1: PRE invokes runahead more frequently than RA (no
	// minimum-interval filter, no flush cost).
	w, _ := workload.ByName("libquantum")
	entries := func(mode Mode) int64 {
		c := newCore(t, mode, w.New())
		run(t, c, 10000)
		c.ResetStats()
		run(t, c, 60000)
		return c.Stats().Entries
	}
	ra := entries(ModeRA)
	pre := entries(ModePRE)
	if pre <= ra {
		t.Errorf("PRE entries %d must exceed RA entries %d", pre, ra)
	}
}

func TestAllModesOnAllArchetypes(t *testing.T) {
	// Smoke test: every mode completes on one workload of each archetype
	// without watchdog panics, and commits exactly what was asked.
	names := []string{"libquantum", "mcf", "lbm", "soplex", "omnetpp"}
	for _, name := range names {
		for _, mode := range Modes() {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := newCore(t, mode, w.New())
			run(t, c, 15000)
			if c.Stats().Committed < 15000 {
				t.Errorf("%s/%v: committed %d < 15000", name, mode, c.Stats().Committed)
			}
		}
	}
}

func TestFreeExitAblationFasterThanRA(t *testing.T) {
	// E6: RA with snapshot-restore exit must outperform plain RA (the
	// difference is the discard/refill overhead).
	w, _ := workload.ByName("libquantum")
	measure := func(freeExit bool) float64 {
		cfg := Default(ModeRA)
		cfg.FreeExit = freeExit
		c, err := New(cfg, w.New())
		if err != nil {
			t.Fatal(err)
		}
		c.Run(10000)
		c.ResetStats()
		c.Run(60000)
		return c.Stats().IPC()
	}
	plain := measure(false)
	free := measure(true)
	if free <= plain {
		t.Errorf("FreeExit IPC %.3f must beat plain RA %.3f", free, plain)
	}
}

func TestRegisterConservationAcrossEpisodes(t *testing.T) {
	// After any amount of runahead activity, draining the pipeline must
	// leave exactly the initial number of free registers.
	for _, mode := range []Mode{ModeRA, ModeRABuffer, ModePRE, ModePREEMQ} {
		w, _ := workload.ByName("libquantum")
		c := newCore(t, mode, w.New())
		run(t, c, 40000)
		// Drain: stop fetching and let everything commit.
		c.fetch.Freeze()
		for i := 0; i < 3000 && (c.rob.len() > 0 || c.inRunahead); i++ {
			c.Step()
		}
		if c.inRunahead || c.rob.len() > 0 {
			t.Fatalf("%v: pipeline did not drain (rob=%d runahead=%v)", mode, c.rob.len(), c.inRunahead)
		}
		intFree, fpFree := c.ren.FreeCounts()
		total := intFree + fpFree
		want := (168 - uarch.NumIntRegs) + (168 - uarch.NumFPRegs)
		if total != want {
			t.Errorf("%v: %d free registers after drain, want %d (leak or double-free)",
				mode, total, want)
		}
	}
}

func TestEntrySkippedForShortIntervals(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	cfg := Default(ModeRA)
	cfg.MinRunaheadCycles = 100000 // filter everything
	c, err := New(cfg, w.New())
	if err != nil {
		t.Fatal(err)
	}
	c.Run(40000)
	if c.Stats().Entries != 0 {
		t.Error("interval filter set to infinity must suppress all entries")
	}
	if c.Stats().EntriesSkipped == 0 {
		t.Error("skips not counted")
	}
}

func TestFreeResourceSnapshotsAtEntry(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModePRE, w.New())
	run(t, c, 50000)
	s := c.Stats()
	if s.Entries == 0 {
		t.Skip("no entries")
	}
	if s.FreeIQAtEntry.Count() != s.Entries {
		t.Error("E7 snapshots missing")
	}
	frac := s.FreeIntRegAtEntry.Mean()
	if frac <= 0 || frac >= 1 {
		t.Errorf("free int register fraction %.2f implausible", frac)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// store [X]; load [X] immediately after: the load must forward and
	// never reach DRAM even though the line is cold.
	g := &storeLoadGen{}
	c := newCore(t, ModeOoO, g)
	run(t, c, 2000)
	st := c.Hierarchy().DRAM().Stats()
	// Only the streaming stores themselves may touch DRAM (write
	// allocate); the forwarded loads add no read traffic beyond those
	// fills. Every load hitting DRAM separately would roughly double it.
	loads := c.Stats().IssuedLoad
	if loads == 0 {
		t.Fatal("no loads issued")
	}
	if st.Reads > int64(loads) {
		t.Errorf("forwarding broken: %d DRAM reads for %d loads", st.Reads, loads)
	}
}

// storeLoadGen emits {alu -> store [addr] ; load [addr]} with addr
// advancing one line per iteration.
type storeLoadGen struct{ n uint64 }

func (g *storeLoadGen) Name() string { return "store-load" }
func (g *storeLoadGen) Next(u *uarch.Uop) {
	iter := g.n / 3
	addr := 1<<33 + iter*64
	switch g.n % 3 {
	case 0:
		*u = uarch.Uop{PC: 0x600000, Class: uarch.ClassIntAlu, Dst: uarch.IntReg(2), Src1: uarch.IntReg(2)}
	case 1:
		*u = uarch.Uop{PC: 0x600004, Class: uarch.ClassStore, Src1: uarch.IntReg(2), Src2: uarch.IntReg(3), Addr: addr, Size: 8}
	case 2:
		*u = uarch.Uop{PC: 0x600008, Class: uarch.ClassLoad, Dst: uarch.IntReg(4), Src1: uarch.IntReg(3), Addr: addr, Size: 8}
	}
	g.n++
}

func TestMispredictPenaltyVisible(t *testing.T) {
	// omnetpp has ~5% mispredicted data-dependent branches; the predictor
	// must record them and IPC must still be finite/sane.
	w, _ := workload.ByName("omnetpp")
	c := newCore(t, ModeOoO, w.New())
	run(t, c, 30000)
	if c.Predictor().Mispredicts() == 0 {
		t.Error("omnetpp proxy must mispredict sometimes")
	}
}

func TestResetStatsClearsEverything(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModePRE, w.New())
	run(t, c, 20000)
	c.ResetStats()
	s := c.Stats()
	if s.Cycles != 0 || s.Committed != 0 || s.Entries != 0 {
		t.Error("core stats not reset")
	}
	if c.Hierarchy().L1D().Stats().Accesses != 0 {
		t.Error("memory stats not reset")
	}
}
