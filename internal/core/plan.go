package core

import (
	"pok/internal/bpred"
	"pok/internal/isa"
	"pok/internal/lsq"
)

// Per-op slice plans. Everything the timing core derives from an opcode
// under a given Config — its class flags, how many slice-ops it splits
// into, its full-width latency and functional unit, which of its slices
// wait on their predecessor, and which operand slices each slice-op
// reads — is decoded once per Sim into a table indexed by isa.Op. The
// per-instruction paths (initEntry, srcRange, registerConsumer,
// tryIssueFull, dispatch) read plan fields instead of re-running the
// opcode switches for every instruction.

// Plan flags.
const (
	planLoad       uint16 = 1 << iota
	planStore             // memory write
	planCtrl              // can redirect the PC
	planBranch            // conditional branch
	planEqBranch          // beq/bne: refutable by one differing slice (§5.3)
	planDirectJump        // j/jal: resolved at dispatch
	planSyscall           // serializing
	planAmount            // variable shift: source 0 is the shift amount
	planSerialMul         // bit-serial multiplier product (Config.SerialMul)
)

// Functional-unit kinds of a full-width op (tryIssueFull's resource
// selection).
const (
	fuALU uint8 = iota // slice-0 issue slot and integer ALU
	fuMul
	fuDiv
	fuFP
	fuFPMulDiv
)

// opPlan is one op's decoded plan under the Sim's Config.
type opPlan struct {
	flags     uint16
	fu        uint8
	nSlices   uint8
	fullMask  uint8 // (1<<nSlices)-1
	chainMask uint8 // slices that wait on their predecessor
	memSize   uint8
	fullLat   int // latency of the single op of a full-width (nSlices == 1) op
	// in[sl] is the half-open range [lo, hi) of operand slices slice-op
	// sl reads (the op's input-slice profile).
	in [8][2]uint8
}

func (p *opPlan) has(f uint16) bool { return p.flags&f != 0 }

// buildPlans decodes the plan of every op under cfg.
func buildPlans(cfg *Config, plans *[isa.NumOps]opPlan) {
	for i := range plans {
		op := isa.Op(i)
		p := &plans[i]
		*p = opPlan{fullLat: 1, memSize: op.MemSize()}
		cls := op.Class()
		set := func(f uint16, on bool) {
			if on {
				p.flags |= f
			}
		}
		set(planLoad, cls == isa.ClassLoad)
		set(planStore, cls == isa.ClassStore)
		set(planCtrl, op.IsControl())
		set(planBranch, cls == isa.ClassBranch)
		set(planEqBranch, op.EqualityBranch())
		set(planDirectJump, op == isa.OpJ || op == isa.OpJAL)
		set(planSyscall, cls == isa.ClassSyscall)
		set(planAmount, needsAmount(op))
		set(planSerialMul, cfg.SerialMul && op.SliceProfile() == isa.SliceSerialMul)

		p.nSlices = 1
		switch cls {
		case isa.ClassIntALU, isa.ClassBranch, isa.ClassLoad, isa.ClassStore:
			if cfg.Slices > 1 && sliceable(op) {
				p.nSlices = uint8(cfg.Slices)
			}
		case isa.ClassIntMul:
			p.fu, p.fullLat = fuMul, cfg.IntMulLat
		case isa.ClassIntDiv:
			p.fu, p.fullLat = fuDiv, cfg.IntDivLat
		case isa.ClassFP:
			p.fu, p.fullLat = fuFP, cfg.FPALULat
		case isa.ClassFPMulDiv:
			p.fu = fuFPMulDiv
			switch op {
			case isa.OpMULS:
				p.fullLat = cfg.FPMulLat
			case isa.OpSQRTS:
				p.fullLat = cfg.FPSqrtLat
			default:
				p.fullLat = cfg.FPDivLat
			}
		}
		n := int(p.nSlices)
		p.fullMask = uint8(1)<<n - 1
		for sl := 0; sl < n; sl++ {
			lo, hi, carry := op.InputSliceRange(sl, n)
			p.in[sl] = [2]uint8{uint8(lo), uint8(hi)}
			// Slices that also wait on their own predecessor: a carry-in,
			// or any upper slice when slices issue in order.
			if sl > 0 && (carry || !cfg.OoOSlices) {
				p.chainMask |= 1 << sl
			}
		}
	}
}

// sliceable reports whether the op's execution decomposes into slice-ops
// in the bit-sliced datapath.
func sliceable(op isa.Op) bool {
	switch op.SliceProfile() {
	case isa.SliceFullWidth, isa.SliceSerialMul:
		return false
	}
	return !op.IsControl() || op.IsBranch() // branches compare per slice; jumps are full-width
}

// needsAmount reports whether the op's first source is a shift amount
// (variable shifts encode the amount in rs, which maps to source 0).
func needsAmount(op isa.Op) bool {
	return op == isa.OpSLLV || op == isa.OpSRLV || op == isa.OpSRAV
}

// newPredictor builds the branch predictor cfg selects.
func newPredictor(cfg *Config) *bpred.Predictor {
	pred := bpred.NewDefault()
	if cfg.UseBimodal {
		pred.Dir = bpred.NewBimodal(16)
	}
	if cfg.UseLocal {
		pred.Dir = bpred.NewLocal(12, 14)
	}
	return pred
}

// finishInit derives everything a Sim built by either constructor takes
// from its Config alone: the LSQ, the observer gates, the per-op plan
// table, the wakeup wheel's pre-backed buckets and the quiet-cycle skip
// gate. Keeping the tail in one place means a field one constructor
// sets cannot go missing from the other.
func (s *Sim) finishInit() {
	cfg := &s.cfg
	s.lsq = lsq.New(cfg.LSQSize)
	s.collecting = cfg.Collector != nil
	s.oracleOn = cfg.Oracle != nil
	s.invOn = cfg.Invariants != nil
	s.injOn = cfg.Inject != nil
	s.inj = cfg.Inject
	s.tel = cfg.Collector
	buildPlans(cfg, &s.plans)
	s.wh.ovMin = inf
	// Pre-back every wheel bucket with a small slice of one shared array:
	// as simulated time wraps the ring, each bucket would otherwise pay
	// its own first-append allocations.
	backing := make([]cand, wheelHorizon*4)
	for i := range s.wh.bucket {
		s.wh.bucket[i] = backing[i*4 : i*4 : (i+1)*4]
	}
	// Quiet-cycle skipping requires no per-cycle observers: telemetry
	// sampling and the invariant checker want to see every cycle, and
	// fault injection may retime decisions cycle by cycle.
	s.skipOK = !s.collecting && !s.invOn && !s.injOn
}
