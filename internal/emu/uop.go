// Direct-threaded fast path for the functional emulator.
//
// Instead of decoding through a per-PC map and dispatching through a
// 60-case switch with per-step closures (kept as stepLegacy for
// differential testing), the fast path predecodes each static
// instruction once into a dense micro-op (uop) array indexed by
// (pc-base)>>2 and dispatches through an indexed handler table of
// func(*Emulator, *uop, *DynInst). Decode still happens lazily at first
// execution — exactly the old map semantics, so programs that modify
// instruction words before first execution behave identically — but a
// decoded uop carries the instruction fields, the source-register list
// and the sign-extended immediate / branch target precomputed, and a
// steady-state Step performs zero allocations.
package emu

import (
	"fmt"

	"pok/internal/isa"
)

// uop is one predecoded static instruction. target holds the
// precomputed taken-path target for direct branches and jumps (uops are
// per-PC, so the target is a constant).
type uop struct {
	inst   isa.Inst
	state  uint8 // uopEmpty, uopOK or uopBad
	nsrc   uint8
	src    [2]isa.Reg
	immU   uint32 // uint32(inst.Imm): sign-extended immediate as a word
	target uint32
}

const (
	uopEmpty = iota
	uopOK
	uopBad
)

// Predecode-table sizing. The dense window is anchored at the text
// segment holding the entry point and extended over every segment that
// fits; denseMax caps it so a program with far-apart segments (text at
// 0x00400000, data at 0x10000000) does not allocate the span between
// them. denseSlack pads the end by one page, enough for a short
// straight-line overrun past the last text byte (zeroed memory decodes
// as NOPs). A longer overrun leaves the window for the fallback cache
// below, which decodes each PC at its first execution and keeps the
// result as the window does, so the DynInst stream is the same; it
// stops caching only past fallCacheMax distinct out-of-window PCs. The
// slack stays small because every emulator, the oracle's included,
// allocates its window up front, and generated programs are built, run
// and discarded by the thousand.
const (
	denseSlack = pageSize
	denseMax   = 4 << 20
	// fallCacheMax bounds the out-of-window decode cache. The legacy
	// interpreter's map[uint32]isa.Inst grew without bound on wrong-path
	// or generated programs; beyond this many distinct PCs the fallback
	// decodes into a scratch uop without caching.
	fallCacheMax = 1 << 16
)

// FetchError is the structured error returned when instruction fetch or
// decode fails: the PC is recoverable from the error value rather than
// only from its message. It unwraps to the underlying isa decode error.
type FetchError struct {
	PC  uint32
	Err error
}

func (f *FetchError) Error() string { return fmt.Sprintf("at pc 0x%08x: %v", f.PC, f.Err) }
func (f *FetchError) Unwrap() error { return f.Err }

// initFast sizes the dense uop window for the loaded program. Forks skip
// this (utab nil): they execute a handful of wrong-path instructions
// through the fallback cache, mirroring the fresh per-fork decode map of
// the legacy interpreter.
func (e *Emulator) initFast(prog *Program) {
	lo := e.pc &^ 3
	for _, s := range prog.Segments {
		if s.Addr <= lo && uint64(lo)-uint64(s.Addr) < denseMax {
			lo = s.Addr &^ 3
		}
	}
	hi := uint64(lo)
	for _, s := range prog.Segments {
		end := uint64(s.Addr) + uint64(len(s.Data))
		if s.Addr >= lo && end-uint64(lo) <= denseMax && end > hi {
			hi = end
		}
	}
	hi += denseSlack
	if hi-uint64(lo) > denseMax {
		hi = uint64(lo) + denseMax
	}
	e.ubase = lo
	e.utab = make([]uop, (hi-uint64(lo)+3)>>2)
}

// lookupUop returns the (decoded) uop for the current PC, filling it on
// first execution. Out-of-window or misaligned PCs go through the
// bounded fallback cache.
func (e *Emulator) lookupUop() (*uop, error) {
	pc := e.pc
	if off := pc - e.ubase; off>>2 < uint32(len(e.utab)) && off&3 == 0 {
		u := &e.utab[off>>2]
		if u.state == uopOK {
			return u, nil
		}
		return e.fillUop(u, pc)
	}
	if u, ok := e.ufall[pc]; ok {
		if u.state == uopOK {
			return u, nil
		}
		return u, e.uerr[pc]
	}
	u := &e.uscratch
	*u = uop{}
	if _, err := e.fillUop(u, pc); err != nil {
		if e.cacheFallback(pc) {
			e.uerr[pc] = err
			cached := *u
			e.ufall[pc] = &cached
		}
		return u, err
	}
	if e.cacheFallback(pc) {
		cached := *u
		e.ufall[pc] = &cached
		return e.ufall[pc], nil
	}
	return u, nil
}

func (e *Emulator) cacheFallback(pc uint32) bool {
	if len(e.ufall) >= fallCacheMax {
		return false
	}
	if e.ufall == nil {
		e.ufall = make(map[uint32]*uop)
		e.uerr = make(map[uint32]error)
	}
	return true
}

// fillUop decodes the word at pc into u. The uop caches everything the
// handlers need: instruction fields, the source-register list (the
// Sources() slice allocation moves here, off the per-step path) and the
// constant taken-path target of direct control flow.
func (e *Emulator) fillUop(u *uop, pc uint32) (*uop, error) {
	in, err := isa.Decode(e.Mem.Read32(pc))
	if err != nil {
		u.state = uopBad
		return u, &FetchError{PC: pc, Err: err}
	}
	u.inst = in
	u.nsrc = 0
	for _, s := range in.Sources() {
		if u.nsrc < 2 {
			u.src[u.nsrc] = s
			u.nsrc++
		}
	}
	u.immU = uint32(in.Imm)
	switch in.Op {
	case isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ,
		isa.OpBLTZ, isa.OpBGEZ, isa.OpBC1T, isa.OpBC1F:
		u.target = branchTarget(pc, in.Imm)
	case isa.OpJ, isa.OpJAL:
		u.target = (pc+4)&0xf000_0000 | in.Target<<2
	}
	u.state = uopOK
	return u, nil
}

// badUopError rebuilds the decode error for a dense-window uop that
// failed decode earlier (bad uops are rare enough that re-decoding to
// reconstruct the error costs nothing on the hot path).
func (e *Emulator) badUopError(pc uint32) error {
	_, err := isa.Decode(e.Mem.Read32(pc))
	if err == nil {
		// The word was rewritten into something decodable after the bad
		// decode was cached; preserve cache-forever semantics.
		err = fmt.Errorf("isa: stale bad decode")
	}
	return &FetchError{PC: pc, Err: err}
}

// StepInto executes one instruction, writing its dynamic record into
// *d. It is the allocation-free core of Step: handlers write their
// effects directly into d and the emulator state.
func (e *Emulator) StepInto(d *DynInst) error {
	if e.legacy {
		var err error
		*d, err = e.stepLegacy()
		return err
	}
	if e.halted {
		*d = DynInst{}
		return ErrHalted
	}
	pc := e.pc
	var u *uop
	if off := pc - e.ubase; off>>2 < uint32(len(e.utab)) && off&3 == 0 {
		u = &e.utab[off>>2]
		if u.state != uopOK {
			if u.state == uopBad {
				*d = DynInst{}
				return e.badUopError(pc)
			}
			var err error
			if u, err = e.fillUop(u, pc); err != nil {
				*d = DynInst{}
				return err
			}
		}
	} else {
		var err error
		if u, err = e.lookupUop(); err != nil {
			*d = DynInst{}
			return err
		}
	}

	*d = DynInst{
		Seq:  e.icount,
		PC:   pc,
		Inst: u.inst,
		NSrc: int(u.nsrc),
		Src:  u.src,
		Dst:  isa.RegZero,
		Dst2: isa.RegZero,
	}
	// Unused source slots hold RegZero, whose register value is pinned
	// at 0, so reading both unconditionally matches the legacy loop.
	d.SrcVal[0] = e.regs[u.src[0]]
	d.SrcVal[1] = e.regs[u.src[1]]

	e.npc = pc + 4
	h := handlers[u.inst.Op]
	if h == nil {
		return fmt.Errorf("emu: unimplemented op %v at 0x%08x", u.inst.Op, pc)
	}
	h(e, u, d)
	if e.trap != nil {
		err := e.trap
		e.trap = nil
		return err
	}
	d.NextPC = e.npc
	e.pc = e.npc
	e.icount++
	return nil
}

// Handler helpers: the hoisted equivalents of stepLegacy's setDst /
// setHILO / takeBranch closures.

func uSetDst(e *Emulator, d *DynInst, r isa.Reg, v uint32) {
	d.Dst = r
	if r != isa.RegZero {
		d.DstVal = v
		e.regs[r] = v
	}
}

func uSetHILO(e *Emulator, d *DynInst, hi, lo uint32) {
	e.regs[isa.RegHI] = hi
	e.regs[isa.RegLO] = lo
	d.Dst, d.DstVal = isa.RegLO, lo
	d.Dst2, d.Dst2Val = isa.RegHI, hi
}

func uTakeBranch(e *Emulator, d *DynInst, taken bool, target uint32) {
	d.Taken = taken
	d.Target = target
	if taken {
		e.npc = target
	}
}
