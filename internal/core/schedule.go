package core

import (
	"pok/internal/bitslice"
	"pok/internal/emu"
	"pok/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Operand availability
// ---------------------------------------------------------------------------

// srcRange returns the half-open range [lo, hi) of slices of source
// operand i that slice sl of e reads: every slice for a full-width op,
// slice 0 of a variable shift's amount, none of a store's data operand
// (the LSQ consumes it, not address generation), and otherwise the
// op's input-slice profile. depsAvail, criticalProducer and the
// dispatch-time wake masks all read operands through it.
func (s *Sim) srcRange(e *entry, i, sl int) (lo, hi int) {
	switch {
	case e.nSlices == 1:
		return 0, s.cfg.Slices
	case i == e.dataSrc:
		return 0, 0
	case i == e.amountSrc:
		return 0, 1
	}
	r := e.plan.in[sl]
	return int(r[0]), int(r[1])
}

// prodSlice maps slice k of an operand onto the slice of its non-load
// producer p whose execution makes it available: the single op of a
// full-width producer, the last slice when operands bypass atomically,
// slice 0 for the upper slices of a narrow result (a known extension of
// the low slice), and otherwise slice k itself, clamped to p's width.
// srcAvail and the dispatch-time wake masks share it, so the
// slice-mapping rule exists once.
func (s *Sim) prodSlice(p *entry, k int) int {
	switch {
	case p.nSlices == 1:
		return 0
	case !s.cfg.PartialBypass:
		return p.nSlices - 1 // atomic operands: the last slice
	case k >= p.nSlices:
		k = p.nSlices - 1
	}
	if k > 0 && p.narrow {
		return 0
	}
	return k
}

// srcAvail returns when slice `sl` of source operand i of e becomes
// available. announce selects the speculative (load-hit assumed) view used
// for wakeup; the non-announce view is ground truth used at execute.
func (s *Sim) srcAvail(e *entry, i, sl int, announce bool) int64 {
	p := e.srcProd[i]
	if p == nil {
		return 0 // architecturally ready before dispatch
	}
	if p.isLoad {
		if announce {
			return p.memPredDone
		}
		return p.memActualDone
	}
	st := &p.slices[s.prodSlice(p, sl)]
	if p.nSlices > 1 {
		return st.avail()
	}
	if !st.started {
		return inf
	}
	done := st.startC + int64(p.fullLat)
	if p.plan.has(planSerialMul) {
		// Bit-serial product: slice sl emerges (nSlices-1-sl) cycles
		// before the final slice, never earlier than one cycle in.
		early := done - int64(s.cfg.Slices-1-min(sl, s.cfg.Slices-1))
		if early < st.startC+1 {
			early = st.startC + 1
		}
		return early
	}
	return done
}

// depsAvail computes when slice sl of e can begin executing, considering
// the slice-dependence profile, the carry chain, and in-order slice
// issue when out-of-order slices are disabled.
func (s *Sim) depsAvail(e *entry, sl int, announce bool) int64 {
	t := e.dispC + int64(s.cfg.RFStages) + 1 // earliest possible execute
	if st := &e.slices[sl]; st.retryC > t {
		t = st.retryC
	}
	for i := 0; i < e.d.NSrc; i++ {
		lo, hi := s.srcRange(e, i, sl)
		for k := lo; k < hi; k++ {
			if a := s.srcAvail(e, i, k, announce); a > t {
				t = a
			}
		}
	}
	if e.chainMask&(1<<sl) != 0 {
		prev := &e.slices[sl-1]
		if !prev.started {
			return inf
		}
		if a := prev.startC + 1; a > t {
			t = a
		}
	}
	return t
}

// retryAt returns the cycle a replayed slice-op may try again, given the
// ground-truth availability observed at the failed issue. When that time
// is still unknown — the producer is a partial-tag load whose completion
// awaits its full address — the op must not latch the unreachable time
// (doing so parked the slice forever and livelocked the machine); it
// retries as soon as it wins an issue slot again, replaying until the
// operand's true arrival is established.
func retryAt(act int64) int64 {
	if act >= inf {
		return 0
	}
	return act
}

// replayCause classifies a failed speculative issue for the telemetry
// stream: an unknown (inf) ground-truth availability means the producer
// is a partial-tag load still awaiting its full address; anything else
// is an over-optimistic load-hit announcement.
func replayCause(act int64) int64 {
	if act >= inf {
		return telemetry.ReplayPendingAddr
	}
	return telemetry.ReplayLoadLatency
}

// criticalProducer identifies the dataflow edge that gated slice sl of e
// at its (successful) issue: the input whose ground-truth availability
// was latest. The encoding lands in EvSliceIssue.Arg so the offline
// critical-path extractor (internal/profile) can rebuild the per-slice
// dependence DAG without register state:
//
//	> 0  seq+1 of the latest-arriving register producer
//	  -1  the entry's own previous slice (carry chain / in-order issue)
//	   0  no in-flight producer (operands ready at dispatch)
//
// Ties between a register producer and the carry chain go to the carry
// chain (the structural hazard is the binding constraint). The function
// is a pure read of producer state, and its answer rides on every
// EvSliceIssue, so the golden event-stream fixtures pin it.
func (s *Sim) criticalProducer(e *entry, sl int) int64 {
	bestT := int64(0)
	bestSeq := int64(0)
	track := func(i int, t int64) {
		if p := e.srcProd[i]; p != nil && t > bestT {
			bestT = t
			bestSeq = int64(p.seq) + 1
		}
	}
	for i := 0; i < e.d.NSrc; i++ {
		lo, hi := s.srcRange(e, i, sl)
		if lo == hi {
			continue // operand not read by this slice-op
		}
		mx := int64(-1)
		for k := lo; k < hi; k++ {
			if a := s.srcAvail(e, i, k, false); a > mx {
				mx = a
			}
		}
		track(i, mx)
	}
	if e.chainMask&(1<<sl) != 0 {
		if prev := &e.slices[sl-1]; prev.started {
			if t := prev.startC + 1; t >= bestT && t > 0 {
				return -1
			}
		}
	}
	return bestSeq
}

// onSliceExecuted handles per-slice side effects: branch resolution and
// LSQ address updates.
func (s *Sim) onSliceExecuted(e *entry, sl int) {
	availC := e.slices[sl].startC + 1
	if e.nSlices == 1 {
		availC = e.slices[sl].startC + int64(e.fullLat)
	}
	if s.collecting {
		s.emit(telemetry.EvSliceComplete, e.seq, int8(sl), availC, 0)
	}

	if e.isCtrl && !e.resolved {
		s.maybeResolveBranch(e, sl, availC)
	}

	if (e.isLoad || e.isStore) && e.lsqInserted {
		// Address-generation progress: after slice sl completes, bits
		// [0, (sl+1)*W) of the effective address are known.
		if q := e.lsqEnt; q != nil {
			known := (sl + 1) * s.cfg.SliceWidth()
			if e.nSlices == 1 {
				known = 32
			}
			if known > q.KnownBits {
				q.KnownBits = known
			}
		}
	}
}

// branchOperands returns the two compared values of a conditional branch.
func branchOperands(d *emu.DynInst) (a, b uint32) {
	switch d.NSrc {
	case 2:
		return d.SrcVal[0], d.SrcVal[1]
	case 1:
		return d.SrcVal[0], 0
	default:
		return 0, 0
	}
}

// maybeResolveBranch updates resolution state after slice sl of a control
// instruction has executed (its comparison result available at availC).
func (s *Sim) maybeResolveBranch(e *entry, sl int, availC int64) {
	// Jumps and full-width control resolve when their single op executes.
	if e.nSlices == 1 {
		s.resolveBranchAt(e, availC, false)
		return
	}
	a, b := branchOperands(&e.d)
	if s.cfg.EarlyBranch && e.plan.has(planEqBranch) && e.mispred {
		// A mispredicted equality branch asserted the wrong relation. If
		// the operands differ in this very slice, the comparison just
		// performed refutes the prediction immediately.
		w := s.cfg.SliceWidth()
		if !bitslice.MatchField(a, b, sl*w, w) {
			s.resolveBranchAt(e, availC, true)
			return
		}
	}
	// Otherwise resolution requires the complete comparison.
	if allSlicesStarted(e) {
		s.resolveBranchAt(e, lastSliceAvail(e), false)
	}
}

// markSliceIssued records the execution start of slice sl in both the
// per-slice struct and the entry's SoA mirrors (startedMask, execEnd), so
// the per-cycle consumers below stay one-compare operations.
func markSliceIssued(e *entry, sl int, now int64) {
	st := &e.slices[sl]
	st.started = true
	st.startC = now
	e.startedMask |= uint8(1) << uint(sl)
	end := now + 1
	if e.nSlices == 1 {
		end = now + int64(e.fullLat)
	}
	if end > e.execEnd {
		e.execEnd = end
	}
}

func allSlicesStarted(e *entry) bool {
	return e.startedMask == e.fullMask
}

// lastSliceAvail is valid once allSlicesStarted: execEnd accumulated the
// maximum per-slice availability as the slices issued.
func lastSliceAvail(e *entry) int64 {
	return e.execEnd
}

func (s *Sim) resolveBranchAt(e *entry, c int64, early bool) {
	if e.resolved && e.resolveC <= c {
		return
	}
	e.resolved = true
	e.resolveC = c
	if s.collecting {
		flags := int64(0)
		if e.mispred {
			flags |= telemetry.ResolveMispredict
		}
		if early {
			flags |= telemetry.ResolveEarly
		}
		s.emit(telemetry.EvBranchResolve, e.seq, -1, c, flags)
	}
	if early {
		e.earlyResolved = true
		s.res.EarlyResolved++
	}
}
