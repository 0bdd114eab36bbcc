// Package inject implements the deterministic fault injector behind
// core.Config.Inject. Every decision is a pure function of (Seed,
// sequence number, slice, fault kind) — independent of call order or
// call count — so a fault campaign replays identically given its seed.
//
// All injected faults perturb *speculation only*: a flipped slice result
// is caught at issue verify and replays; a forced MRU way miss takes the
// §5.2 full-address verification path; a forced alias conflict stalls
// the load like an unresolved partial-address match of §5.1. A correct
// machine therefore recovers from every injected fault to an
// oracle-identical commit stream — that recovery is exactly what
// cmd/pok-check asserts. The two exceptions are deliberate test hooks:
// Wedge (flip one slice forever, proving the deadlock watchdog fires)
// and Corrupt (mutate one commit record, proving the oracle detects
// divergence).
package inject

import (
	"encoding/json"
	"fmt"

	"pok/internal/core"
)

// Options configures an Injector. Rates are probabilities in [0, 1]
// evaluated independently per candidate (per (seq, slice) for slice
// flips, per load for the memory faults).
type Options struct {
	// Seed selects the deterministic fault pattern.
	Seed uint64

	// SliceFlipRate is the probability a given (seq, slice) result is
	// declared corrupt at its first issue; the slice-op replays once.
	SliceFlipRate float64
	// WayMissRate is the probability a correct MRU way prediction is
	// forced wrong, sending the load down the full-address replay path.
	WayMissRate float64
	// ConflictRate is the probability a load is stalled by a fake
	// partial-address store conflict for ConflictDelay cycles.
	ConflictRate float64
	// ConflictDelay is how many cycles a forced conflict stalls the load
	// (0 = default 8).
	ConflictDelay int

	// StormEvery/StormLen inject replay storms: every StormEvery
	// sequence numbers, a burst of StormLen consecutive instructions has
	// every slice flipped once — a worst-case pile-up of simultaneous
	// replays. 0 disables.
	StormEvery uint64
	StormLen   uint64

	// MaxFaults caps the total number of delivered faults (0 = no cap).
	MaxFaults uint64

	// WedgeOn/WedgeSeq: flip slice 0 of instruction WedgeSeq on *every*
	// issue attempt, so it can never execute. The machine stops
	// committing and the deadlock watchdog must fire — a test hook for
	// the watchdog, not a recoverable fault.
	WedgeOn  bool
	WedgeSeq uint64

	// CorruptOn/CorruptAt: mutate the commit record at commit index
	// CorruptAt (flip destination-value bit 0) before the oracle sees
	// it — a test hook proving divergence detection end to end.
	CorruptOn bool
	CorruptAt uint64
}

// Injector implements core.Injector deterministically from a seed.
type Injector struct {
	opt Options

	// fired tracks (seq<<3|slice) slice flips already delivered, so a
	// flipped slice-op replays once rather than livelocking.
	fired map[uint64]struct{}
	// wayDone tracks loads whose way-miss decision was consumed.
	wayDone map[uint64]struct{}
	// stall maps a conflicted load to its remaining stall cycles.
	stall map[uint64]int

	counts       map[string]uint64
	total        uint64
	wedgeCounted bool // wedge fault already counted once
}

// New builds an injector.
func New(opt Options) *Injector {
	if opt.ConflictDelay <= 0 {
		opt.ConflictDelay = 8
	}
	return &Injector{
		opt:     opt,
		fired:   make(map[uint64]struct{}),
		wayDone: make(map[uint64]struct{}),
		stall:   make(map[uint64]int),
		counts:  make(map[string]uint64),
	}
}

var _ core.Injector = (*Injector)(nil)

// splitmix64 finalizer: a full-avalanche 64-bit mix.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Per-kind salts keep the fault streams independent.
const (
	saltFlip = iota + 1
	saltWay
	saltConflict
)

// roll returns a uniform [0,1) deterministic in (seed, salt, seq, sl).
func (j *Injector) roll(salt uint64, seq uint64, sl int) float64 {
	h := mix(mix(j.opt.Seed^salt*0x9e3779b97f4a7c15) ^ mix(seq)*2 + uint64(sl))
	return float64(h>>11) / float64(1<<53)
}

func (j *Injector) capped() bool {
	return j.opt.MaxFaults > 0 && j.total >= j.opt.MaxFaults
}

func (j *Injector) deliver(kind string) {
	j.counts[kind]++
	j.total++
}

// inStorm reports whether seq falls in a configured replay-storm burst.
func (j *Injector) inStorm(seq uint64) bool {
	return j.opt.StormEvery > 0 && j.opt.StormLen > 0 &&
		seq%j.opt.StormEvery < j.opt.StormLen
}

// FlipSlice implements core.Injector.
func (j *Injector) FlipSlice(seq uint64, sl int) bool {
	if j.opt.WedgeOn && seq == j.opt.WedgeSeq && sl == 0 {
		// The wedge hook flips forever: the slice can never issue and
		// the deadlock watchdog must end the run.
		if !j.wedgeCounted {
			j.wedgeCounted = true
			j.deliver("wedge")
		}
		return true
	}
	key := seq<<3 | uint64(sl)
	if _, done := j.fired[key]; done || j.capped() {
		return false
	}
	switch {
	case j.inStorm(seq):
		j.fired[key] = struct{}{}
		j.deliver("storm-flip")
		return true
	case j.opt.SliceFlipRate > 0 && j.roll(saltFlip, seq, sl) < j.opt.SliceFlipRate:
		j.fired[key] = struct{}{}
		j.deliver("slice-flip")
		return true
	}
	return false
}

// ForceWayMiss implements core.Injector.
func (j *Injector) ForceWayMiss(seq uint64) bool {
	if _, done := j.wayDone[seq]; done || j.capped() {
		return false
	}
	if j.opt.WayMissRate > 0 && j.roll(saltWay, seq, 0) < j.opt.WayMissRate {
		j.wayDone[seq] = struct{}{}
		j.deliver("way-miss")
		return true
	}
	return false
}

// ForceAliasConflict implements core.Injector. The memory stage retries
// an unissued load every cycle, so this is polled repeatedly: the first
// positive decision arms a ConflictDelay-cycle stall that then drains.
func (j *Injector) ForceAliasConflict(seq uint64) bool {
	if left, armed := j.stall[seq]; armed {
		if left > 0 {
			j.stall[seq] = left - 1
			return true
		}
		return false
	}
	if j.capped() || j.opt.ConflictRate <= 0 ||
		j.roll(saltConflict, seq, 0) >= j.opt.ConflictRate {
		j.stall[seq] = 0 // decided: never conflict this load
		return false
	}
	j.stall[seq] = j.opt.ConflictDelay - 1
	j.deliver("alias-conflict")
	return true
}

// MutateCommit implements core.Injector: the deliberate-corruption test
// hook. It flips destination-value bit 0 at commit index CorruptAt (or
// the next-PC when the instruction writes no register), guaranteeing the
// oracle sees a field mismatch.
func (j *Injector) MutateCommit(r *core.CommitRecord) {
	if !j.opt.CorruptOn || r.Index != j.opt.CorruptAt {
		return
	}
	if r.Dst != 0 {
		r.DstVal ^= 1
	} else {
		r.NextPC ^= 4
	}
	j.deliver("commit-corrupt")
}

// injectorState is the injector's checkpointable state: the monotonic
// fault counters and caps. The per-instruction maps (fired, wayDone,
// stall) are deliberately absent — SnapshotState is called only at
// quiescent checkpoint boundaries, where no instruction is in flight,
// and every map key is a strictly increasing sequence number that will
// never be polled again.
type injectorState struct {
	Counts       map[string]uint64 `json:"counts,omitempty"`
	Total        uint64            `json:"total"`
	WedgeCounted bool              `json:"wedge_counted"`
}

// SnapshotState implements core.StateSnapshotter. The encoding is
// deterministic (encoding/json sorts map keys), so identical injector
// histories produce identical checkpoint bytes.
func (j *Injector) SnapshotState() ([]byte, error) {
	return json.Marshal(&injectorState{
		Counts:       j.counts,
		Total:        j.total,
		WedgeCounted: j.wedgeCounted,
	})
}

// RestoreState implements core.StateSnapshotter: the resumed injector
// continues the fault budget (MaxFaults) and counters exactly where the
// checkpointed one stopped, so every later roll lands identically.
func (j *Injector) RestoreState(b []byte) error {
	var st injectorState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("inject: restore: %w", err)
	}
	j.counts = st.Counts
	if j.counts == nil {
		j.counts = make(map[string]uint64)
	}
	j.total = st.Total
	j.wedgeCounted = st.WedgeCounted
	j.fired = make(map[uint64]struct{})
	j.wayDone = make(map[uint64]struct{})
	j.stall = make(map[uint64]int)
	return nil
}

var _ core.StateSnapshotter = (*Injector)(nil)

// FaultCounts returns the number of faults delivered, by kind (the
// check.FaultCounter interface).
func (j *Injector) FaultCounts() map[string]uint64 {
	out := make(map[string]uint64, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of delivered faults.
func (j *Injector) Total() uint64 { return j.total }
