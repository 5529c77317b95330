package core

import (
	"repro/internal/cache"
	"repro/internal/frontend"
	"repro/internal/runahead"
)

// This file implements the second half of event-driven cycle skipping:
// fast-forwarding steady *retry* spans.
//
// skipAhead (core.go) handles provably inert cycles. But the dominant
// stall pattern on memory-bound workloads is not inert: a ready load (or
// store drain, or instruction fetch) retries a structurally blocked
// resource — usually exhausted MSHRs — every cycle, and each retry counts
// real statistics (cache accesses, misses, MSHR stalls). Those cycles
// cannot be elided, but they can be amortized: between wake-up events the
// machine's behavior is a constant function, so every retry cycle
// produces the *same* counter deltas. Run proves this empirically (two
// consecutive no-progress cycles with identical deltas and no
// state-changing activity) and then applies the per-cycle delta in bulk
// up to the next wake-up: the earliest completion event, runahead exit,
// replay start, fetch thaw / line arrival / decode readiness, occupied-
// MSHR release at any cache level, or divide-unit release. DRAM bank and
// bus times need no separate probe — the resource-reservation timing
// model bakes them into the fill-completion times the events and MSHRs
// already carry.
//
// The result is byte-identical to stepping every cycle (the differential
// tests pin this), at a small fraction of the host cost.

// cacheRetryStats is the per-level slice of a retry cycle's footprint.
type cacheRetryStats struct {
	accesses, hits, misses, mshrStalls int64
}

func cacheRetryOf(s cache.Stats) cacheRetryStats {
	return cacheRetryStats{accesses: s.Accesses, hits: s.Hits, misses: s.Misses, mshrStalls: s.MSHRStalls}
}

// retrySnap captures, as absolute values, every counter a steady retry
// cycle can legally touch — plus guard counters that must not move at all
// (any movement there means the cycle did something non-replicable and
// the span must not be amortized).
type retrySnap struct {
	// Bulk-replicable counters.
	cycles, runaheadCycles, fullWindowStall, robFullEvents int64
	freeze, icache                                         int64
	sstLookups, sstHits                                    int64
	l1i, l1d, l2, l3                                       cacheRetryStats

	// Guard counters: a nonzero delta vetoes amortization. Most imply
	// c.progressed structurally and just double-check the enumeration of
	// retry-path side effects; pfObserves is a real veto — the L2
	// prefetcher trains before the L2/L3 MSHR rejection, so a blocked
	// retry cycle can still mutate a prediction table and must be
	// re-executed, never replayed as a bulk delta.
	decoded, dispatched, renamed, committed, completed, pseudoRetired int64
	fetched, sstInserts, dramReads, dramWrites, pfObserves            int64
}

// captureRetry snapshots the retry-relevant counters.
func (c *Core) captureRetry(s *retrySnap) {
	st := c.stats
	s.cycles = st.Cycles
	s.runaheadCycles = st.RunaheadCycles
	s.fullWindowStall = st.FullWindowStallCycles
	s.robFullEvents = st.RobFullEvents
	s.decoded = st.Decoded
	s.dispatched = st.Dispatched
	s.renamed = st.Renamed
	s.committed = st.Committed
	s.completed = st.Completed
	s.pseudoRetired = st.PseudoRetired

	fe := c.fetch.Stats()
	s.freeze = fe.FreezeCycles
	s.icache = fe.ICacheStallCy
	s.fetched = fe.FetchedUops

	ss := c.sst.Stats()
	s.sstLookups = ss.Lookups
	s.sstHits = ss.Hits
	s.sstInserts = ss.Inserts

	s.l1i = cacheRetryOf(c.hier.L1I().Stats())
	s.l1d = cacheRetryOf(c.hier.L1D().Stats())
	s.l2 = cacheRetryOf(c.hier.L2().Stats())
	s.l3 = cacheRetryOf(c.hier.L3().Stats())

	dr := c.hier.DRAM().Stats()
	s.dramReads = dr.Reads
	s.dramWrites = dr.Writes
	s.pfObserves = c.hier.PFObserves()
}

// sub returns the componentwise difference s - o.
func (s *retrySnap) sub(o *retrySnap) retrySnap {
	d := retrySnap{
		cycles:          s.cycles - o.cycles,
		runaheadCycles:  s.runaheadCycles - o.runaheadCycles,
		fullWindowStall: s.fullWindowStall - o.fullWindowStall,
		robFullEvents:   s.robFullEvents - o.robFullEvents,
		freeze:          s.freeze - o.freeze,
		icache:          s.icache - o.icache,
		sstLookups:      s.sstLookups - o.sstLookups,
		sstHits:         s.sstHits - o.sstHits,
		decoded:         s.decoded - o.decoded,
		dispatched:      s.dispatched - o.dispatched,
		renamed:         s.renamed - o.renamed,
		committed:       s.committed - o.committed,
		completed:       s.completed - o.completed,
		pseudoRetired:   s.pseudoRetired - o.pseudoRetired,
		fetched:         s.fetched - o.fetched,
		sstInserts:      s.sstInserts - o.sstInserts,
		dramReads:       s.dramReads - o.dramReads,
		dramWrites:      s.dramWrites - o.dramWrites,
		pfObserves:      s.pfObserves - o.pfObserves,
	}
	subC := func(a, b cacheRetryStats) cacheRetryStats {
		return cacheRetryStats{
			accesses:   a.accesses - b.accesses,
			hits:       a.hits - b.hits,
			misses:     a.misses - b.misses,
			mshrStalls: a.mshrStalls - b.mshrStalls,
		}
	}
	d.l1i = subC(s.l1i, o.l1i)
	d.l1d = subC(s.l1d, o.l1d)
	d.l2 = subC(s.l2, o.l2)
	d.l3 = subC(s.l3, o.l3)
	return d
}

// replicable reports whether the delta describes a cycle safe to amortize:
// exactly one cycle elapsed, no guard counter moved, and no cache hit was
// recorded (a hit on any retry path implies a success, i.e. progress).
func (d *retrySnap) replicable() bool {
	return d.cycles == 1 &&
		d.decoded == 0 && d.dispatched == 0 && d.renamed == 0 &&
		d.committed == 0 && d.completed == 0 && d.pseudoRetired == 0 &&
		d.fetched == 0 && d.sstInserts == 0 &&
		d.dramReads == 0 && d.dramWrites == 0 && d.pfObserves == 0 &&
		d.l1i.hits == 0 && d.l1d.hits == 0 && d.l2.hits == 0 && d.l3.hits == 0
}

// applyRetryDelta accounts n repetitions of the per-cycle delta d.
func (c *Core) applyRetryDelta(d *retrySnap, n int64) {
	c.stats.Cycles += n * d.cycles
	c.stats.RunaheadCycles += n * d.runaheadCycles
	c.stats.FullWindowStallCycles += n * d.fullWindowStall
	c.stats.RobFullEvents += n * d.robFullEvents
	c.fetch.AddStats(frontend.Stats{FreezeCycles: n * d.freeze, ICacheStallCy: n * d.icache})
	if d.sstLookups != 0 || d.sstHits != 0 {
		c.sst.AddStats(runahead.SSTStats{Lookups: n * d.sstLookups, Hits: n * d.sstHits})
	}
	addC := func(cc *cache.Cache, cs cacheRetryStats) {
		if cs.accesses != 0 || cs.misses != 0 || cs.mshrStalls != 0 {
			cc.AddStats(cache.Stats{
				Accesses:   n * cs.accesses,
				Misses:     n * cs.misses,
				MSHRStalls: n * cs.mshrStalls,
			})
		}
	}
	addC(c.hier.L1I(), d.l1i)
	addC(c.hier.L1D(), d.l1d)
	addC(c.hier.L2(), d.l2)
	addC(c.hier.L3(), d.l3)
}

const horizon = int64(^uint64(0) >> 1)

// wakeBound returns the earliest cycle at or after c.now at which the
// machine's behavior could change for a reason other than a structural
// retry: a completion event, runahead exit, replay start, fetch thaw or
// line arrival, or the decode pipe's head clearing. c.now is the next
// cycle to execute; a bound at or before it simply means "do not skip".
func (c *Core) wakeBound() int64 {
	bound := horizon
	if t, ok := c.events.nextAt(c.now); ok && t < bound {
		bound = t
	}
	if c.inRunahead {
		if c.exitCycle < bound {
			bound = c.exitCycle
		}
		if c.cfg.Mode.replays() && !c.replayDead && c.replayStart >= c.now && c.replayStart < bound {
			bound = c.replayStart
		}
	}
	// Evaluated at the cycle just executed (c.now-1) so a thaw or line
	// arrival scheduled for exactly c.now still registers.
	if t, ok := c.fetch.NextWakeAt(c.now - 1); ok && t < bound {
		bound = t
	}
	if t, ok := c.fetch.HeadReadyAt(); ok && t >= c.now && t < bound {
		bound = t
	}
	return bound
}

// skipAhead advances c.now to the next wake-up after a provably inert
// Step, replicating in bulk the per-cycle counters the skipped cycles
// would have incremented: Cycles, RunaheadCycles, the full-window stall
// counters (the idle cycle just executed proves whether the stall path
// counts, and nothing can change mid-span), and the fetch unit's freeze /
// I-cache-wait counters.
//
//sim:hotpath
func (c *Core) skipAhead() {
	bound := c.wakeBound()
	if bound <= c.now || bound == horizon {
		return // nothing to skip, or a wedged machine the watchdog must see
	}
	n := bound - c.now
	c.stats.Cycles += n
	c.stats.SkippedAhead += n
	if c.inRunahead {
		c.stats.RunaheadCycles += n
	}
	if c.stalledFW {
		c.stats.FullWindowStallCycles += n
		c.stats.RobFullEvents += n
	}
	if c.tel != nil {
		c.tel.CycleSkip(c.now, n, "idle")
		if c.stalledFW {
			c.tel.FullWindowStallN(c.now, n)
		}
	}
	c.fetch.SkipIdle(c.now, n)
	c.now = bound
}

// retrySkip fast-forwards a proven steady retry span: it bounds the span
// by every wake-up source (including occupied-MSHR releases and busy
// divide units, which inert skips never need), applies the per-cycle
// delta in bulk, and jumps. It reports whether any cycles were skipped.
func (c *Core) retrySkip(d *retrySnap) bool {
	bound := c.wakeBound()
	if t, ok := c.hier.NextMSHRRelease(c.now - 1); ok && t < bound {
		bound = t
	}
	if t, ok := c.fu.nextDivFree(c.now - 1); ok && t < bound {
		bound = t
	}
	if bound <= c.now || bound == horizon {
		return false
	}
	n := bound - c.now
	c.applyRetryDelta(d, n)
	c.stats.SkippedAhead += n
	if c.tel != nil {
		c.tel.CycleSkip(c.now, n, "retry")
		if d.fullWindowStall > 0 {
			// The proven per-cycle delta stalls every cycle of the span.
			c.tel.FullWindowStallN(c.now, n)
		}
	}
	c.now = bound
	return true
}
