package core

import (
	"math/bits"

	"pok/internal/isa"
	"pok/internal/lsq"
	"pok/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Dispatch / rename
// ---------------------------------------------------------------------------

func (s *Sim) dispatch() {
	for n := 0; n < s.cfg.FetchWidth && s.fetchBuf.Len() > 0; n++ {
		e := s.fetchBuf.Front()
		if s.now < e.fetchC+int64(s.cfg.FrontEndDepth) {
			return // still in the front-end pipe
		}
		if s.window.Len() >= s.cfg.WindowSize {
			if n == 0 {
				s.res.StallWindowFull++
			}
			return
		}
		if s.cfg.IssueQueueSize > 0 && s.iqCount >= s.cfg.IssueQueueSize {
			if n == 0 {
				s.res.StallIQFull++
			}
			return // per-slice issue queues full (Figure 7)
		}
		if e.plan.has(planSyscall) && s.window.Len() > 0 && !e.wp {
			return // serialize syscalls (wrong-path ones never commit anyway)
		}
		if (e.isLoad || e.isStore) && s.lsq.Full() {
			if n == 0 {
				s.res.StallLSQFull++
			}
			return
		}
		s.fetchBuf.PopFront()
		e.dispatched = true
		e.dispC = s.now
		if s.collecting {
			s.emit(telemetry.EvDispatch, e.seq, -1, 0, 0)
		}

		// Rename: bind source registers to their in-flight producers.
		for i := 0; i < e.d.NSrc; i++ {
			if p := s.regProd[e.d.Src[i]]; p != nil && !p.committed {
				e.srcProd[i] = p
			}
		}
		s.registerConsumer(e)
		if d := e.d.Dst; d != isa.RegZero {
			if p := s.regProd[d]; p != nil {
				e.prevDstProd, e.prevDstGen = p, p.gen
			} else {
				e.prevDstProd = nil
			}
			s.regProd[d] = e
		}
		if d2 := e.d.Dst2; d2 != isa.RegZero {
			if p := s.regProd[d2]; p != nil {
				e.prevDst2Prod, e.prevDst2Gen = p, p.gen
			} else {
				e.prevDst2Prod = nil
			}
			s.regProd[d2] = e
		}

		if e.isLoad || e.isStore {
			// The LSQ entry lives inside the (pooled) window entry: it is
			// always removed from the queue at commit or squash, before the
			// entry can recycle, so embedding saves a heap allocation per
			// memory op.
			e.lsqData = lsq.Entry{
				Seq:     e.seq,
				IsStore: e.isStore,
				Addr:    e.d.EffAddr,
				Size:    e.plan.memSize,
			}
			q := &e.lsqData
			_ = s.lsq.Insert(q)
			e.lsqEnt = q
			e.lsqInserted = true
		}

		// Direct jumps resolve at dispatch; they can never mispredict.
		if e.plan.has(planDirectJump) {
			e.resolved = true
			e.resolveC = s.now
		}
		s.window.PushBack(e)
		s.iqCount++
		// Seed the wakeup wheel with every slice whose inputs are already
		// determined. The rest are enqueued by the producer event that
		// resolves their last input, or, for a slice that waits on its
		// predecessor, by that predecessor's issue.
		for sl := 0; sl < e.nSlices; sl++ {
			if e.unres[sl] == 0 && !e.chainBlocked(sl) {
				s.enqueueCand(e, sl)
			}
		}
		// Likewise queue a memory op whose gate inputs are known.
		if (e.isStore || e.isLoad && s.cfg.SumAddressed) && e.memUnres == 0 {
			s.memInputsKnown(e)
		}
	}
}

// registerConsumer puts e on the consumer list of each in-flight
// producer it still waits for. The registration carries the wake masks:
// for each producer event j, the slices of e that read it (srcRange
// gives the operand slices a slice-op reads, prodSlice the producer
// slice each one comes from; a load's consumers all read its single
// completion event). Events that already happened are dropped after
// folding their announced times into e.inAt, and each pending (event,
// slice) pair counts once in e.unres. A memory op also registers for
// the events its memory gate reads (registerMemConsumer).
func (s *Sim) registerConsumer(e *entry) {
	t0 := e.dispC + int64(s.cfg.RFStages) + 1 // earliest possible execute
	for sl := 0; sl < e.nSlices; sl++ {
		e.inAt[sl] = t0
	}
	for i := 0; i < e.d.NSrc; i++ {
		p := e.srcProd[i]
		if p == nil {
			continue
		}
		if p.isLoad {
			e.loadSrc = true
		}
		if i > 0 && p == e.srcProd[0] {
			continue // both operands come from one producer: registered once
		}
		cr := consRef{e: e, gen: e.gen}
		pending := false
		for i2 := i; i2 < e.d.NSrc; i2++ {
			if e.srcProd[i2] != p {
				continue
			}
			for sl := 0; sl < e.nSlices; sl++ {
				lo, hi := s.srcRange(e, i2, sl)
				for k := lo; k < hi; k++ {
					j := 0
					if !p.isLoad {
						j = s.prodSlice(p, k)
					}
					if (p.isLoad && p.memIssued) || (!p.isLoad && p.slices[j].started) {
						// The event already happened: fold its time.
						if a := s.srcAvail(e, i2, k, true); a > e.inAt[sl] {
							e.inAt[sl] = a
						}
						continue
					}
					pending = true
					cr.wake[j] |= 1 << sl
				}
			}
		}
		if pending {
			for j := range cr.wake {
				for m := cr.wake[j]; m != 0; m &= m - 1 {
					e.unres[bits.TrailingZeros8(m)]++
				}
			}
			p.consumers = append(p.consumers, cr)
		}
	}
	if e.isStore && e.dataSrc >= 0 {
		s.registerMemConsumer(e, e.dataSrc, s.cfg.Slices)
	}
	if e.isLoad && s.cfg.SumAddressed {
		k := s.cfg.AddrSliceFor16Bits()
		for i := 0; i < e.d.NSrc; i++ {
			s.registerMemConsumer(e, i, k+1)
		}
	}
}

// registerMemConsumer registers memory op e for the producer events
// that fix the ground-truth arrival of slices [0, hi) of its operand i:
// the producer slice each one comes from, or a load producer's
// completion time becoming known. Each pending event counts once in
// e.memUnres.
func (s *Sim) registerMemConsumer(e *entry, i, hi int) {
	p := e.srcProd[i]
	if p == nil {
		return
	}
	cr := consRef{e: e, gen: e.gen}
	if p.isLoad {
		if p.memIssued && p.memPendFull == pendNone {
			return
		}
		cr.wake[0] = 1
	} else {
		for k := 0; k < hi; k++ {
			if j := s.prodSlice(p, k); !p.slices[j].started {
				cr.wake[j] = 1
			}
		}
	}
	var n uint8
	for _, w := range cr.wake {
		n += w
	}
	if n > 0 {
		e.memUnres += n
		p.memConsumers = append(p.memConsumers, cr)
	}
}
