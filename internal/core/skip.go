package core

// Quiet-cycle skipping: the wakeup-wheel idea extended to fetch, dispatch
// and commit. After a cycle in which the front end is stalled and no
// slice-op or memory op is due, every future state change is pinned to a
// computable event time — the earliest wheel wakeup (slice-ops, and the
// memory stage's store data arrivals, load address gates and deferred
// partial-tag completions), a branch's resolveC, the I-cache refill, the
// front entry's commit-ready time, the front-end latency of the next
// dispatch — so the simulator can jump s.now straight to the earliest
// such event instead of iterating cycles that provably do nothing.
// Stall counters that the per-cycle loop would have incremented
// during the jumped-over cycles are bulk-added, replicating the
// first-matching-condition priority of fetch() and dispatch().
//
// The skip is gated (s.skipOK) on the absence of per-cycle observers.
// TestSkipMatchesNoSkip compares skipping runs against runs with the
// skip forced off and requires bit-identical Results; the golden
// fixtures pin both.

// nextCycle returns the cycle Run should simulate next: s.now+1, or a
// later cycle when everything between is provably quiet. The jump is
// capped at the deadlock watchdog's firing cycle so a wedged machine
// reports the same DeadlockError as the per-cycle loop.
func (s *Sim) nextCycle(lastCommit, budget int64) int64 {
	noSkip := s.now + 1
	if !s.skipOK {
		return noSkip
	}
	// A ready slice-op retries arbitration every cycle; a due load that
	// lost cache-port arbitration or disambiguation retries next cycle.
	// Either makes the next cycle non-quiet.
	if len(s.ready) > 0 || len(s.memDue) > 0 {
		return noSkip
	}

	// Fetch ladder, in fetch()'s gate order. Each arm either proves fetch
	// quiet until a known event (recording the per-cycle stall counter the
	// reference loop would charge) or shows fetch active next cycle.
	var fetchCtr *uint64
	target := lastCommit + budget + 1 // watchdog cap
	switch {
	case s.fetchBlockedBy != nil:
		fetchCtr = &s.res.StallMispredict
		if b := s.fetchBlockedBy; b.resolved && b.resolveC < target {
			target = b.resolveC
		}
	case s.wpBranch != nil:
		if !s.wpStopped {
			return noSkip // wrong-path supply fetches every cycle
		}
		fetchCtr = &s.res.StallMispredict
		if b := s.wpBranch; b.resolved && b.resolveC < target {
			target = b.resolveC
		}
	case s.fetchStallTo > s.now+1:
		fetchCtr = &s.res.StallICache
		if s.fetchStallTo < target {
			target = s.fetchStallTo
		}
	case !s.traceDone || s.pendingOK:
		if s.fetchBuf.Len() < (s.cfg.FrontEndDepth+2)*s.cfg.FetchWidth {
			return noSkip // room in the buffer: fetch progresses next cycle
		}
		// Buffer full: fetch idles (uncounted) until dispatch drains it,
		// and dispatch's own events below bound the jump.
	}

	// Dispatch ladder, in dispatch()'s gate order. The occupancies it
	// tests (window, issue queues, LSQ) change only at events that bound
	// the jump, so the blocking cause is constant across skipped cycles.
	var dispCtr *uint64
	if s.fetchBuf.Len() > 0 {
		front := s.fetchBuf.Front()
		if rdy := front.fetchC + int64(s.cfg.FrontEndDepth); rdy > s.now+1 {
			if rdy < target {
				target = rdy // still in the front-end pipe, silently
			}
		} else {
			switch {
			case s.window.Len() >= s.cfg.WindowSize:
				dispCtr = &s.res.StallWindowFull
			case s.cfg.IssueQueueSize > 0 && s.iqCount >= s.cfg.IssueQueueSize:
				dispCtr = &s.res.StallIQFull
			case front.plan.has(planSyscall) && s.window.Len() > 0 && !front.wp:
				// Serialized syscall: drains via commit events, uncounted.
			case (front.isLoad || front.isStore) && s.lsq.Full():
				dispCtr = &s.res.StallLSQFull
			default:
				return noSkip // dispatch proceeds next cycle
			}
		}
	}

	// Scheduler and memory-stage events: the earliest wheel wakeup.
	// Slice-ops and memory ops not yet in the wheel are queued by
	// producer events, which are themselves wheel events already
	// bounding the jump.
	if t := s.wh.min(); t < target {
		target = t
	}

	// Commit event: the cycle the window front completes its last known
	// obligation. Obligations still unknown (inf) resolve only at events
	// that bound the jump, so no commit can occur before target.
	if s.window.Len() > 0 {
		if t := s.frontDoneC(s.window.Front()); t < target {
			target = t
		}
	}

	if target <= noSkip {
		return noSkip
	}
	skipped := uint64(target - noSkip)
	if fetchCtr != nil {
		*fetchCtr += skipped
	}
	if dispCtr != nil {
		*dispCtr += skipped
	}
	return target
}

// frontDoneC returns the cycle the window front will satisfy entryDone,
// considering only obligations whose completion times are already known;
// any unknown obligation returns inf (its resolution is an event that
// bounds the jump on its own).
func (s *Sim) frontDoneC(e *entry) int64 {
	if !e.dispatched || e.wp || e.startedMask != e.fullMask {
		return inf
	}
	t := e.execEnd
	if e.isLoad {
		if e.memActualDone >= inf {
			return inf
		}
		if e.memActualDone > t {
			t = e.memActualDone
		}
	}
	if e.isStore {
		if q := e.lsqEnt; q == nil || !q.DataReady || !q.AddrKnown() {
			return inf
		}
	}
	if e.isCtrl {
		if !e.resolved {
			return inf
		}
		if e.resolveC > t {
			t = e.resolveC
		}
	}
	return t
}
