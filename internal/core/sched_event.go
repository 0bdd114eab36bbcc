package core

import (
	"math/bits"

	"pok/internal/telemetry"
)

// Event-driven scheduler.
//
// Instead of rescanning the whole window every cycle, each slice-op is
// pushed into a time-indexed wakeup wheel (a bucketed timing wheel keyed
// on its speculative wake time) exactly once per attempt, at the event
// that determines the last of its inputs:
//
//   - dispatch seeds every slice whose inputs are already determined;
//   - a producer event — one slice of the producer executing, or a load
//     establishing its completion time — walks the producer's consumer
//     list and, through the wake mask registered at dispatch, touches
//     only the consumer slices that read that event. Each of them counts
//     down its unresolved inputs (entry.unres) and is enqueued when the
//     count reaches zero;
//   - a slice that waits on its predecessor (a carry, or in-order slice
//     issue: entry.chainMask) is enqueued by the predecessor's issue, or
//     by a later producer event once the predecessor has issued;
//   - a replay re-enqueues the slice-op at its retryC.
//
// Every input of depsAvail transitions exactly once from "unknown" (inf)
// to a fixed time, and each producer event folds that time into the
// consumer slice's running maximum (entry.inAt), so the wake time taken
// when the last input resolves is exact and costs one max: the slice-op
// is pushed once, sits in the wheel or the ready set (sliceState.queued)
// until it issues or replays, and is never re-evaluated in between.
// Ready candidates issue in (seq, slice) order: oldest first, the select
// priority of a full-window scan. Memory ops share the wheel as memory
// candidates (see memory.go).

// schedWork counts the event scheduler's work for tests. It stays off
// Result, so Result, telemetry and every digest over them are unchanged.
type schedWork struct {
	evals  uint64 // slice-op wake-time evaluations
	pushes uint64 // slice candidates pushed into the wheel
	admits uint64 // slice candidates moved from the wheel into the ready set
	issues uint64 // slice-ops issued (replays are counted in Result)

	// Memory stage.
	memPushes   uint64 // memory candidates pushed into the wheel
	memAdmits   uint64 // memory candidates moved into the due list
	loadVisits  uint64 // issue attempts on unissued loads
	loadEarly   uint64 // attempts that found the load's address gate closed
	portRetries uint64 // attempts that lost cache-port arbitration
	waitRetries uint64 // attempts held back by disambiguation (LoadWait)
}

// memSlice marks a memory candidate (cand.sl); slice candidates carry
// the slice index.
const memSlice = -1

// cand is one wakeup-wheel candidate: slice sl of entry e becomes
// schedulable at cycle wake, or, with sl == memSlice, memory op e is due
// in the memory stage. gen snapshots e.gen so candidates that outlive a
// squashed-and-recycled entry are dropped on pop.
type cand struct {
	e    *entry
	wake int64
	seq  uint64
	gen  uint32
	sl   int32
}

// The wheel is a power-of-two ring of per-cycle buckets plus an
// occupancy bitmap. A binary min-heap held the candidates in earlier
// revisions, but each sift swap of the pointer-carrying cand struct paid
// a GC write barrier, and the heap's O(log n) reshuffling dominated the
// scheduler profile; bucket appends are straight-line stores and the
// per-cycle drain touches only the bucket for the current cycle.
const (
	// wheelHorizon bounds how far ahead a bucketed wakeup may lie. It
	// comfortably exceeds the longest single-event latency the machine
	// can schedule (an L1+L2 miss to memory plus a TLB walk); rarer,
	// farther wakes spill to the overflow list.
	wheelHorizon = 512
	wheelMask    = wheelHorizon - 1
	wheelWords   = wheelHorizon / 64
)

// wakeWheel is the bucketed timing wheel. Buckets cover the cycles
// [base, base+wheelHorizon); all candidates in one live bucket share the
// same wake cycle (the window is exactly one horizon wide, so bucket
// indices cannot alias). base is the earliest cycle whose bucket has not
// been consumed: the cycle being simulated while its stages run, and the
// next cycle once schedule() has drained.
type wakeWheel struct {
	bucket   [wheelHorizon][]cand
	occ      [wheelWords]uint64 // bitmap of non-empty buckets
	base     int64
	count    int    // candidates across all buckets (excluding overflow)
	overflow []cand // wakes at or beyond base+wheelHorizon
	ovMin    int64  // earliest overflow wake, inf when overflow is empty
}

// min returns the earliest pending wake cycle, or inf when the wheel is
// empty. The quiet-cycle skipper uses it to bound its jump.
func (w *wakeWheel) min() int64 {
	t := w.bucketMin()
	if w.ovMin < t {
		t = w.ovMin
	}
	return t
}

// bucketMin scans the occupancy bitmap circularly from base and returns
// the earliest bucketed wake cycle, or inf.
func (w *wakeWheel) bucketMin() int64 {
	if w.count == 0 {
		return inf
	}
	start := int(w.base) & wheelMask
	wi := start >> 6
	m := w.occ[wi] &^ (1<<uint(start&63) - 1) // ignore bits before base
	for k := 0; k <= wheelWords; k++ {
		if m != 0 {
			b := wi<<6 + bits.TrailingZeros64(m)
			return w.base + int64((b-start)&wheelMask)
		}
		wi = (wi + 1) % wheelWords
		m = w.occ[wi]
	}
	return inf // unreachable while count > 0
}

// pushWheel inserts a candidate into the wakeup wheel. Wakes in the past
// (a replay whose retry time is unknown or already passed) are clamped
// to base so they surface at the next drain, exactly when the min-heap
// predecessor would have re-delivered them.
func (s *Sim) pushWheel(c cand) {
	if c.sl == memSlice {
		s.work.memPushes++
	} else {
		s.work.pushes++
	}
	w := &s.wh
	t := c.wake
	if t < w.base {
		t = w.base
	}
	if t >= w.base+wheelHorizon {
		w.overflow = append(w.overflow, c)
		if c.wake < w.ovMin {
			w.ovMin = c.wake
		}
		return
	}
	b := int(t) & wheelMask
	w.bucket[b] = append(w.bucket[b], c)
	w.occ[b>>6] |= 1 << uint(b&63)
	w.count++
}

// admit moves a drained candidate into this cycle's slice or memory
// admits unless its entry was squashed (and possibly recycled) while it
// waited.
func (s *Sim) admit(c cand) {
	e := c.e
	if c.gen != e.gen || e.committed || e.squashed {
		return
	}
	if c.sl == memSlice {
		s.work.memAdmits++
		s.memAdmits = append(s.memAdmits, c)
		return
	}
	s.work.admits++
	s.admits = append(s.admits, c)
}

// drainWheel moves every candidate due at or before s.now into this
// cycle's admits and advances base past the consumed cycles. It runs
// once a cycle, at the top of memoryStage.
func (s *Sim) drainWheel() {
	w := &s.wh
	for w.count > 0 {
		t := w.bucketMin()
		if t > s.now {
			break
		}
		b := int(t) & wheelMask
		bk := w.bucket[b]
		w.count -= len(bk)
		for _, c := range bk {
			s.admit(c)
		}
		w.bucket[b] = bk[:0]
		w.occ[b>>6] &^= 1 << uint(b&63)
	}
	if w.ovMin <= s.now {
		ov := w.overflow
		n := 0
		newMin := int64(inf)
		for _, c := range ov {
			if c.wake <= s.now {
				s.admit(c)
				continue
			}
			if c.wake < newMin {
				newMin = c.wake
			}
			ov[n] = c
			n++
		}
		for i := n; i < len(ov); i++ {
			ov[i] = cand{}
		}
		w.overflow = ov[:n]
		w.ovMin = newMin
	}
	w.base = s.now + 1
}

// wake returns the speculative wake time of slice sl of e once all of
// its inputs are determined: the folded input maximum, the retry time
// of a replay, and the predecessor's result for a chained slice. It
// equals depsAvail(e, sl, true), which the invariant checker's wakeup
// rule asserts.
func (e *entry) wake(sl int) int64 {
	t := e.inAt[sl]
	if r := e.slices[sl].retryC; r > t {
		t = r
	}
	if e.chainMask&(1<<sl) != 0 {
		if a := e.slices[sl-1].startC + 1; a > t {
			t = a
		}
	}
	return t
}

// enqueueCand inserts slice sl of e, whose inputs are all determined,
// into the wheel at its wake time.
func (s *Sim) enqueueCand(e *entry, sl int) {
	e.slices[sl].queued = true
	s.work.evals++
	s.pushWheel(cand{e: e, wake: e.wake(sl), seq: e.seq, gen: e.gen, sl: int32(sl)})
}

// chainBlocked reports whether slice sl of e still waits on its own
// predecessor, whose issue will enqueue it.
func (e *entry) chainBlocked(sl int) bool {
	return e.chainMask&(1<<sl) != 0 && e.startedMask&(1<<(sl-1)) == 0
}

// eventTime returns the announced time producer event j of p delivers:
// a load's announced completion, otherwise the result of slice j (of
// the single op, for a full-width producer). A bit-serial product is
// the exception: its operand slices emerge at different times, so
// those consumers fold through srcAvail instead (serialInAt).
func eventTime(p *entry, j int) int64 {
	if p.isLoad {
		return p.memPredDone
	}
	if p.nSlices == 1 {
		return p.slices[0].startC + int64(p.fullLat)
	}
	return p.slices[j].startC + 1
}

// serialInAt returns the latest announced time at which slice sl of c
// reads an operand slice of the bit-serial producer p.
func (s *Sim) serialInAt(c, p *entry, sl int) int64 {
	var t int64
	for i := 0; i < c.d.NSrc; i++ {
		if c.srcProd[i] != p {
			continue
		}
		lo, hi := s.srcRange(c, i, sl)
		for k := lo; k < hi; k++ {
			if a := s.srcAvail(c, i, k, true); a > t {
				t = a
			}
		}
	}
	return t
}

// wakeConsumers handles producer event j of p: slice j executing, or
// (j = 0) a load's announced completion time becoming known. Only the
// consumer slices whose wake mask names the event are touched; each
// folds the event's time into its input maximum, resolves one input and
// enters the wheel once none is left.
func (s *Sim) wakeConsumers(p *entry, j int) {
	t := eventTime(p, j)
	serial := p.plan.has(planSerialMul)
	for _, cr := range p.consumers {
		m := cr.wake[j]
		if m == 0 {
			continue
		}
		c := cr.e
		if c.gen != cr.gen || c.committed || c.squashed {
			continue
		}
		for ; m != 0; m &= m - 1 {
			sl := bits.TrailingZeros8(m)
			at := t
			if serial {
				at = s.serialInAt(c, p, sl)
			}
			if at > c.inAt[sl] {
				c.inAt[sl] = at
			}
			c.unres[sl]--
			if c.unres[sl] == 0 && !c.chainBlocked(sl) {
				s.enqueueCand(c, sl)
			}
		}
	}
}

// schedule merges the slice candidates memoryStage drained off the
// wheel into the age-ordered ready set, then issues it in program order
// under the per-slice issue and FU limits.
// Resource-starved candidates stay ready for the next cycle; replayed
// ones are re-enqueued at their retryC.
func (s *Sim) schedule() {
	if len(s.admits) > 0 {
		s.ready = mergeReady(s.ready, s.admits)
		s.admits = s.admits[:0]
	}
	r := s.ready
	n := 0
	for i, c := range r {
		e := c.e
		if c.gen != e.gen || e.committed || e.squashed {
			continue // squashed since entering the ready set
		}
		var consumed bool
		if e.nSlices == 1 {
			consumed = s.tryIssueFull(e)
		} else {
			consumed = s.tryIssueSlice(e, int(c.sl))
		}
		if !consumed {
			// No issue slot this cycle; stay ready. Write only on actual
			// compaction to spare the pointer write barrier.
			if n != i {
				r[n] = c
			}
			n++
		}
	}
	for i := n; i < len(r); i++ {
		r[i] = cand{}
	}
	s.ready = r[:n]
}

// candLess is the select priority: program order, then slice.
func candLess(a, b cand) bool {
	return a.seq < b.seq || (a.seq == b.seq && a.sl < b.sl)
}

// mergeReady folds this cycle's admits into an age-ordered candidate
// list: the ready set, or the memory stage's due list (whose candidates
// all carry memSlice, one per op). The admits are few and arrive in push
// order, so they are put in order
// with an insertion sort; the merge then runs from the back, moving only
// the survivors younger than some admit.
func mergeReady(r, a []cand) []cand {
	for i := 1; i < len(a); i++ {
		c := a[i]
		j := i - 1
		for j >= 0 && candLess(c, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = c
	}
	n := len(r)
	r = append(r, a...)
	if n == 0 || candLess(r[n-1], a[0]) {
		return r // every admit is younger than every survivor
	}
	i, j := n-1, len(a)-1
	for k := len(r) - 1; j >= 0; k-- {
		if i >= 0 && candLess(a[j], r[i]) {
			r[k] = r[i]
			i--
		} else {
			r[k] = a[j]
			j--
		}
	}
	return r
}

// replay wastes the slot slice sl of e just won: its operand did not
// arrive (or an injected fault corrupted it), so the slice-op is
// re-enqueued to retry at cycle retry.
func (s *Sim) replay(e *entry, sl int, retry, cause int64) {
	e.slices[sl].retryC = retry
	e.replayedSelf = true
	s.res.Replays++
	if s.collecting {
		s.emit(telemetry.EvReplay, e.seq, int8(sl), retry, cause)
	}
	s.enqueueCand(e, sl)
}

// verify is the issue-time check of a speculatively woken slice-op: it
// reports whether a replay is due and, if so, its retry cycle and cause.
// Only a load producer can announce a time its data misses; without
// one, the ground-truth view equals the announced wake, which has
// passed, so nothing is re-evaluated.
func (s *Sim) verify(e *entry, sl int) (replay bool, retry, cause int64) {
	if e.loadSrc {
		if act := s.depsAvail(e, sl, false); act > s.now {
			// Load-hit misspeculation: the slot is wasted and the
			// slice-op replays once its operand truly arrives.
			return true, retryAt(act), replayCause(act)
		}
	}
	if s.injOn && s.inj.FlipSlice(e.seq, sl) {
		// Injected slice corruption: the verify stage catches it, the
		// slot is wasted and the slice-op replays next cycle.
		return true, s.now + 1, telemetry.ReplayInjected
	}
	return false, 0, 0
}

// tryIssueSlice attempts to issue one slice-op of a sliced entry,
// reporting whether the candidate was consumed (issued or replayed).
func (s *Sim) tryIssueSlice(e *entry, sl int) bool {
	if s.issueUsed[sl] >= s.cfg.IssueWidth || s.aluUsed[sl] >= s.cfg.IntALUs {
		return false
	}
	s.issueUsed[sl]++
	s.aluUsed[sl]++
	e.slices[sl].queued = false // the candidate is consumed either way below
	if replay, retry, cause := s.verify(e, sl); replay {
		s.replay(e, sl, retry, cause)
		return true
	}
	markSliceIssued(e, sl, s.now)
	s.work.issues++
	if s.collecting {
		s.emit(telemetry.EvSliceIssue, e.seq, int8(sl), s.criticalProducer(e, sl), 0)
	}
	s.onSliceExecuted(e, sl)
	if allSlicesStarted(e) {
		e.execDone = true
		s.iqCount--
	}
	s.sliceEvent(e, sl)
	// A carry chain or in-order slice issue makes the next slice wait on
	// this one; it is enqueued now if nothing else holds it back.
	if nx := sl + 1; nx < e.nSlices && e.chainMask&(1<<nx) != 0 && e.unres[nx] == 0 {
		s.enqueueCand(e, nx)
	}
	return true
}

// tryIssueFull attempts to issue a full-width operation, reporting
// whether the candidate was consumed (issued or replayed). A ready
// candidate consumes its unit before the actual-readiness verify, so a
// replay wastes the unit just as the hardware would.
func (s *Sim) tryIssueFull(e *entry) bool {
	fu := e.plan.fu
	switch fu {
	case fuMul:
		if s.mulUsed >= s.cfg.IntMul {
			return false
		}
	case fuDiv:
		if s.divFree > s.now {
			return false
		}
	case fuFP:
		if s.fpUsed >= s.cfg.FPALUs {
			return false
		}
	case fuFPMulDiv:
		if s.fpmdFree > s.now {
			return false
		}
	default:
		if s.issueUsed[0] >= s.cfg.IssueWidth || s.aluUsed[0] >= s.cfg.IntALUs {
			return false
		}
	}
	switch fu {
	case fuMul:
		s.mulUsed++
	case fuDiv:
		s.divFree = s.now + int64(e.fullLat)
	case fuFP:
		s.fpUsed++
	case fuFPMulDiv:
		s.fpmdFree = s.now + int64(e.fullLat)
	default:
		s.issueUsed[0]++
		s.aluUsed[0]++
	}
	e.slices[0].queued = false // the candidate is consumed either way below
	if replay, retry, cause := s.verify(e, 0); replay {
		s.replay(e, 0, retry, cause)
		return true
	}
	markSliceIssued(e, 0, s.now)
	s.work.issues++
	e.execDone = true
	s.iqCount--
	if s.collecting {
		s.emit(telemetry.EvSliceIssue, e.seq, 0, s.criticalProducer(e, 0), 1)
	}
	s.onSliceExecuted(e, 0)
	s.sliceEvent(e, 0)
	return true
}

// sliceEvent fires the producer event of slice sl of e having issued. A
// load's register consumers wait for its memory access instead; its own
// address-generation progress may open its memory gate or, for a
// deferred partial-tag access, complete the address it waits on.
func (s *Sim) sliceEvent(e *entry, sl int) {
	if e.isLoad {
		s.loadAgenEvent(e)
		return
	}
	s.wakeConsumers(e, sl)
	if len(e.memConsumers) > 0 {
		s.wakeMemConsumers(e, sl)
	}
}
