package core

import (
	"repro/internal/frontend"
	"repro/internal/rename"
)

// pipeSnapshot captures the whole pipeline at runahead entry for the E6
// ablation (Section 2.4): "the speedup has the potential to reach up to
// 20.6 percent if the instructions that occupy the ROB when the core
// enters runahead mode are not discarded". With Config.FreeExit, RA
// restores this snapshot at exit instead of flushing, modelling an
// idealized runahead with zero discard/refill cost. Memory-system state is
// deliberately NOT restored: the prefetches issued during runahead are the
// benefit being isolated.
//
// The core owns one pipeSnapshot (snapBuf) and refills it in place on
// every entry, so the per-episode snapshot costs no allocation once the
// buffers have grown to pipeline size.
// The issue queue needs no snapshot of its own: its content is exactly
// the sWaiting records of the snapshotted ROB, from which restoreSnapshot
// rebuilds occupancy, waiter registrations and the ready list.
type pipeSnapshot struct {
	robMeta []slotMeta
	robRec  []uopRec
	robHead int
	robSize int
	sqE     []sqEntry
	sqHead  int
	sqSize  int
	lqNorm  int
	ren     rename.FullSnapshot
	fetch   frontend.FetchSnapshot
}

// takeSnapshotInto deep-copies the pipeline into s, reusing its buffers
// (called at RA entry under FreeExit, before the stalling load is
// poisoned).
func (c *Core) takeSnapshotInto(s *pipeSnapshot) {
	s.robMeta = append(s.robMeta[:0], c.rob.meta...)
	s.robRec = append(s.robRec[:0], c.rob.rec...)
	s.robHead = c.rob.head
	s.robSize = c.rob.size
	s.sqE = append(s.sqE[:0], c.sq.e...)
	s.sqHead = c.sq.head
	s.sqSize = c.sq.size
	s.lqNorm = c.lqNorm
	c.ren.TakeFullSnapshotInto(&s.ren)
	c.fetch.TakeSnapshotInto(&s.fetch)
}

// restoreSnapshot reinstates the pipeline exactly as it was at entry, with
// two adjustments: all pending completion events are invalidated (slot
// generations advance) and re-scheduled from each issued µop's known
// completion time, and the runahead episode's in-flight transients are
// discarded.
func (c *Core) restoreSnapshot(s *pipeSnapshot) {
	c.iqDirty = true
	// Restore ROB contents, advancing every slot generation past both the
	// snapshot's and the current value so stale events cannot match.
	for i := range s.robMeta {
		cur := c.rob.meta[i].gen
		snap := s.robMeta[i].gen
		c.rob.meta[i] = s.robMeta[i]
		if cur > snap {
			c.rob.meta[i].gen = cur + 1
		} else {
			c.rob.meta[i].gen = snap + 1
		}
	}
	copy(c.rob.rec, s.robRec)
	c.rob.head = s.robHead
	c.rob.size = s.robSize

	c.sq.e = append(c.sq.e[:0], s.sqE...)
	c.sq.head = s.sqHead
	c.sq.size = s.sqSize
	c.sq.rebuildBloom()
	c.lqNorm = s.lqNorm
	c.lqPre = 0
	c.pre.flush()

	c.ren.RestoreFullSnapshot(&s.ren)
	c.fetch.RestoreSnapshot(&s.fetch, c.now+1)

	// Rebuild the IQ from the restored ROB: waiting entries in program
	// order (the snapshot was taken in RA mode, so only kROB µops existed).
	// Waiter registrations from the snapshotted episode were consumed, so
	// every waiting entry re-registers — necessarily after the renamer
	// restore above, which reinstates the ready bits srcWait is computed
	// from.
	c.iq.clear()
	for i := 0; i < c.rob.size; i++ {
		idx := c.rob.at(i)
		m := &c.rob.meta[idx]
		if m.st == sWaiting {
			c.enqueue(kROB, idx, m, &c.rob.rec[idx])
		}
	}

	// Re-schedule completions for issued-but-unfinished µops. Their memory
	// completion times were computed at issue and remain valid; anything
	// already past completes next cycle. The stalling load's data has
	// arrived (that is why we are exiting), so it completes immediately
	// and cleanly (never poisoned — the snapshot predates the INV mark).
	for i := 0; i < c.rob.size; i++ {
		idx := c.rob.at(i)
		m := &c.rob.meta[idx]
		if m.st != sIssued {
			continue
		}
		at := c.rob.rec[idx].readyAt
		if at <= c.now {
			at = c.now + 1
		}
		c.events.schedule(c.now, completion{cycle: at, kind: kROB, slot: int32(idx), gen: m.gen})
	}
}
