package core

import (
	"pok/internal/cache"
	"pok/internal/lsq"
	"pok/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

// memoryStage is the event-driven memory stage. A memory op reaches it
// only as a memory candidate on the wakeup wheel, pushed at the event
// that fixes the cycle it has work to do:
//
//   - a load at the cycle its address gate opens: the low-16-bit agen
//     slice under PartialTag (or, under SumAddressed, its base operand's
//     ground-truth arrival, whichever is earlier), otherwise the full
//     address. The agen slice's issue, or the last of the base
//     operand's producer events, computes the gate;
//   - a store at the ground-truth arrival of its data operand, computed
//     when the last of the data producers' events fires (a load
//     producer's event is its completion time becoming known, at its
//     memory issue or, for a deferred partial-tag access, at
//     finalizePendingLoad);
//   - a deferred partial-tag load the cycle after its last agen slice
//     issues, when its full address exists and its completion time can
//     be finalized.
//
// The wheel is drained here, once a cycle, before anything else pushes:
// slice candidates go on to schedule(), memory candidates join the due
// list. Due ops are visited in seq order, so cache-port arbitration, the
// store-before-younger-load data marking and the telemetry stream keep
// program order. A load that loses port arbitration or is held back by
// disambiguation stays due and retries next cycle; everything else
// leaves the list after one visit.
func (s *Sim) memoryStage() {
	s.drainWheel()
	if len(s.memAdmits) > 0 {
		s.memDue = mergeReady(s.memDue, s.memAdmits)
		s.memAdmits = s.memAdmits[:0]
	}
	d := s.memDue
	n := 0
	for i, c := range d {
		e := c.e
		if c.gen != e.gen || e.committed || e.squashed {
			continue
		}
		if s.memVisit(e) {
			e.memQueued = false
			continue
		}
		if n != i {
			d[n] = c
		}
		n++
	}
	for i := n; i < len(d); i++ {
		d[i] = cand{}
	}
	s.memDue = d[:n]
}

// memVisit does the memory-stage work a due op was queued for and
// reports whether it is finished; a load that could not issue stays due.
func (s *Sim) memVisit(e *entry) bool {
	if e.isStore {
		// The data operand has arrived: forwardable from now on.
		e.lsqEnt.DataReady = true
		e.dataReadyC = s.now // commit attribution: when the data arrived
		return true
	}
	if e.memIssued {
		// Deferred partial-tag access: the full address now exists.
		s.finalizePendingLoad(e)
		s.wakeMemConsumers(e, 0)
		return true
	}
	s.work.loadVisits++
	s.tryIssueLoad(e)
	if !e.memIssued {
		return false
	}
	// The load's announced completion time is now known: wake its
	// register dependents. A deferred completion changes only the
	// ground-truth time, which they read afresh at their issue-time
	// verify; memory consumers wait for that one.
	s.wakeConsumers(e, 0)
	if e.memPendFull == pendNone {
		s.wakeMemConsumers(e, 0)
	}
	return true
}

// pushMem queues memory op e for the memory stage at cycle wake.
func (s *Sim) pushMem(e *entry, wake int64) {
	e.memQueued = true
	s.pushWheel(cand{e: e, wake: wake, seq: e.seq, gen: e.gen, sl: memSlice})
}

// scrubMemDue removes squashed entries eagerly so a recycled entry can
// never be misread through a stale due-list reference.
func (s *Sim) scrubMemDue() {
	d := s.memDue
	n := 0
	for i, c := range d {
		if !c.e.squashed {
			if n != i {
				d[n] = c
			}
			n++
		}
	}
	for i := n; i < len(d); i++ {
		d[i] = cand{}
	}
	s.memDue = d[:n]
}

// memInputsKnown queues memory op e once the ground-truth times its gate
// reads are all known (memUnres reached zero): a store at its data
// arrival, no earlier than the cycle after dispatch; a sum-addressed
// load at its address gate.
func (s *Sim) memInputsKnown(e *entry) {
	if e.isStore {
		s.pushMem(e, max(s.dataArrival(e), e.dispC+1))
		return
	}
	s.queueLoadGate(e)
}

// queueLoadGate queues unissued load e at its address gate once the gate
// is known.
func (s *Sim) queueLoadGate(e *entry) {
	if !e.memQueued && !e.memIssued {
		if g := s.loadGate(e); g < inf {
			s.pushMem(e, g)
		}
	}
}

// loadAgenEvent handles an address-generation slice of load e issuing:
// it may open the load's memory gate or, once the last slice issued,
// complete the address a deferred partial-tag access waits on.
func (s *Sim) loadAgenEvent(e *entry) {
	if !e.memIssued {
		s.queueLoadGate(e)
		return
	}
	if !e.memQueued && e.memPendFull != pendNone && allSlicesStarted(e) {
		s.pushMem(e, s.now+1)
	}
}

// wakeMemConsumers handles producer event j of p for the memory ops
// waiting on it: slice j executing, or (j = 0) a load's ground-truth
// completion time becoming known. An op whose last input resolved is
// queued for the memory stage.
func (s *Sim) wakeMemConsumers(p *entry, j int) {
	for _, cr := range p.memConsumers {
		if cr.wake[j] == 0 {
			continue
		}
		c := cr.e
		if c.gen != cr.gen || c.committed || c.squashed {
			continue
		}
		c.memUnres--
		if c.memUnres == 0 {
			s.memInputsKnown(c)
		}
	}
}

// loadGate returns the cycle load e may first try the cache: the cycle
// its low 16 address bits exist under PartialTag, its full address
// otherwise; inf while unknown.
func (s *Sim) loadGate(e *entry) int64 {
	partialC, fullC := s.agenTimes(e)
	if s.cfg.PartialTag {
		return partialC
	}
	return fullC
}

// dataArrival returns the ground-truth cycle every slice of store e's
// data operand is available, or inf while a producer's time is unknown.
func (s *Sim) dataArrival(e *entry) int64 {
	var t int64
	if e.dataSrc < 0 {
		return t // $zero data: available at dispatch
	}
	for k := 0; k < s.cfg.Slices; k++ {
		if a := s.srcAvail(e, e.dataSrc, k, false); a > t {
			t = a
			if t >= inf {
				return inf
			}
		}
	}
	return t
}

// finalizePendingLoad resolves a partial-tag access whose outcome needed
// the full address, once address generation completes.
func (s *Sim) finalizePendingLoad(e *entry) {
	_, fullC := s.agenTimes(e)
	if fullC >= inf {
		return
	}
	switch e.memPendFull {
	case pendWayMispred:
		e.memActualDone = fullC + 1 + int64(s.cfg.L1DLat)
	case pendMiss:
		e.memActualDone = fullC + e.memPendLat
	}
	e.memPendFull = pendNone
}

// tryIssueLoad attempts to send a load to the memory system this cycle.
func (s *Sim) tryIssueLoad(e *entry) {
	if s.portsUsed >= s.cfg.CachePorts {
		s.work.portRetries++
		return // port starvation is cycle-local: retry next cycle
	}
	q := e.lsqEnt
	if q == nil {
		return
	}
	// How much of the address do we have, and when did we get it?
	partialC, fullC := s.agenTimes(e)
	if s.cfg.PartialTag {
		if partialC > s.now {
			s.work.loadEarly++
			return // not even the low 16 bits yet
		}
	} else if fullC > s.now {
		s.work.loadEarly++
		return
	}

	if s.injOn && s.inj.ForceAliasConflict(e.seq) {
		// Injected disambiguation conflict: treat the load as if a prior
		// store's partial address matched (§5.1 LoadWait); it retries
		// next cycle.
		e.disambigWait = true
		s.work.waitRetries++
		return
	}
	status, _ := s.lsq.Disambiguate(e.seq, s.cfg.EarlyLSDisambig)
	if status == lsq.LoadWait {
		e.disambigWait = true // commit attribution: LSQ held this load back
		s.work.waitRetries++
		return
	}
	// "Early release": the load issued while its own or some prior store's
	// address was still incomplete — impossible without partial operands.
	early := q.KnownBits < 32
	s.storeScratch = s.lsq.AppendPriorStores(s.storeScratch[:0], e.seq)
	for _, st := range s.storeScratch {
		if !st.AddrKnown() {
			early = true
			break
		}
	}
	if early && !e.wp {
		e.earlyRelease = true
		s.res.LoadsEarlyRelease++
	}
	if status == lsq.LoadForward {
		e.memIssued = true
		e.forwarded = true
		e.memPredDone = s.now + 1
		e.memActualDone = s.now + 1
		if !e.wp {
			s.res.StoreForwards++
			s.res.Loads++
		}
		if s.collecting {
			s.emit(telemetry.EvMemIssue, e.seq, -1, e.memActualDone, 1)
		}
		s.portsUsed++
		return
	}

	s.portsUsed++
	e.memIssued = true
	if !e.wp {
		s.res.Loads++
	}
	addr := e.d.EffAddr
	// Data TLB: a miss adds the walk latency to the load's completion
	// (the translation joins the full-tag verification).
	tlbLat := int64(0)
	if s.dtlb != nil {
		walk, _ := s.dtlb.Access(addr)
		tlbLat = int64(walk)
	}
	l1 := s.hier.L1D
	hit := l1.Lookup(addr)
	e.l1Hit = hit

	if s.cfg.PartialTag && fullC > s.now {
		// Partial-tag access: we have the index and a few tag bits only.
		if !e.wp {
			s.res.PartialTagAccess++
		}
		tagBits := l1.KnownTagBits(16)
		kind := l1.ClassifyPartial(addr, tagBits)
		_, _, correct := l1.PredictWay(addr, tagBits)
		if correct && s.injOn && s.inj.ForceWayMiss(e.seq) {
			// Injected MRU way mispredict: the speculative way selection
			// is declared wrong; the access replays at full-address time
			// through the §5.2 verification path.
			correct = false
		}
		lat, _ := s.hier.AccessData(addr)
		switch {
		case kind == cache.ZeroMatch:
			// Miss known early and non-speculatively: the L2 access
			// overlaps the remaining address generation.
			e.earlyMissSignal = true
			if !e.wp {
				s.res.EarlyMissSignals++
			}
			e.memActualDone = s.now + int64(lat)
		case hit && correct:
			// Way prediction verified: data returned before the full
			// address was even generated.
			e.memActualDone = s.now + int64(lat)
		case hit && !correct:
			// Way mispredict: replay the access once the full address
			// arrives (the selective-recovery extension of §7).
			e.wayMispred = true
			if !e.wp {
				s.res.WayMispredicts++
			}
			if fullC < inf {
				e.memActualDone = fullC + 1 + int64(s.cfg.L1DLat)
			} else {
				e.memPendFull = pendWayMispred
				e.memActualDone = inf
			}
		default:
			// Partial match existed but the access misses: the miss is
			// confirmed at full-address time; the refill already started.
			if fullC < inf {
				e.memActualDone = fullC + int64(lat)
			} else {
				e.memPendFull = pendMiss
				e.memPendLat = int64(lat)
				e.memActualDone = inf
			}
		}
		e.memPredDone = s.now + int64(s.cfg.L1DLat)
		e.memActualDone += tlbLat
		if s.collecting {
			s.emit(telemetry.EvPartialVerify, e.seq, -1, int64(kind), b2i(e.wayMispred))
			s.emit(telemetry.EvMemIssue, e.seq, -1, e.memActualDone, 0)
		}
		return
	}

	// Conventional access with the full address.
	lat, _ := s.hier.AccessData(addr)
	e.memActualDone = s.now + int64(lat) + tlbLat
	e.memPredDone = s.now + int64(s.cfg.L1DLat)
	if s.collecting {
		s.emit(telemetry.EvMemIssue, e.seq, -1, e.memActualDone, 0)
	}
}

// agenTimes returns the cycles at which (a) the low 16 address bits and
// (b) the complete address become available, or inf if not yet computed.
func (s *Sim) agenTimes(e *entry) (partial, full int64) {
	if e.nSlices == 1 {
		st := &e.slices[0]
		if !st.started {
			return inf, inf
		}
		t := st.startC + int64(e.fullLat)
		return t, t
	}
	p := &e.slices[s.cfg.AddrSliceFor16Bits()]
	partial = inf
	if p.started {
		partial = p.avail()
	}
	full = inf
	if allSlicesStarted(e) {
		full = lastSliceAvail(e)
	}
	if s.cfg.SumAddressed {
		// The cache decoder computes base+offset itself: the speculative
		// index is ready when the base register's low slices are, without
		// waiting for the agen slice-op to execute.
		if t := s.sumAddrReady(e); t < partial {
			partial = t
		}
	}
	return partial, full
}

// sumAddrReady returns when a sum-addressed decoder could start the
// speculative access: all base-operand slices covering the low 16 bits.
func (s *Sim) sumAddrReady(e *entry) int64 {
	t := e.dispC + int64(s.cfg.RFStages) + 1
	k := s.cfg.AddrSliceFor16Bits()
	for i := 0; i < e.d.NSrc; i++ {
		if i == e.dataSrc {
			continue
		}
		for sl := 0; sl <= k; sl++ {
			if a := s.srcAvail(e, i, sl, false); a > t {
				t = a
			}
		}
	}
	return t
}
