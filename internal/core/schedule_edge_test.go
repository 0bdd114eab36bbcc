package core

import (
	"testing"
)

// Edge-case coverage for the operand-availability rules in schedule.go.
// Every test pins its program's Result to a golden fixture recorded
// when the original full-window scan scheduler agreed with the event
// scheduler on it, so each scheduling corner (serial-multiply early
// emergence, narrow-width forwarding, variable-shift amount operands,
// load-hit replay) stays cycle-exact.

// runGoldenSrc runs src under cfg and fails unless the Result matches
// the golden fixture edge_<cfg.Name>. It returns the result for
// behavioral assertions.
func runGoldenSrc(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	r := run(t, mustProg(t, src), cfg)
	checkGolden(t, "edge_"+cfg.Name, *r)
	return r
}

// serialMulSrc carries the loop dependence through the LOW bits of each
// iteration's product: the multiply feeds a load address, and the loaded
// value feeds the next multiply. Only an early-emerging low product slice
// shortens that recurrence — the full product is never on the path.
const serialMulSrc = `
.data
buf: .space 4096
.text
main:
	li $s0, 300
	li $t0, 3
	la $s1, buf
loop:
	mult $t0, $t0
	mflo $t1
	andi $t2, $t1, 1020
	addu $t3, $s1, $t2
	lw   $t4, 0($t3)
	addu $t0, $t4, $s0
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`

// TestSerialMulEarlySliceEmergence: with SerialMul, low result slices of
// a multiply emerge before the full product (srcAvail's SliceSerialMul
// arm), so the dependent address-generation slices — and the partial-tag
// load behind them — start earlier and the loop runs in strictly fewer
// cycles than with an atomic multiplier.
func TestSerialMulEarlySliceEmergence(t *testing.T) {
	atomic := BitSliced(4)
	atomic.Name = "mul-atomic"
	serial := BitSliced(4)
	serial.Name = "mul-serial"
	serial.SerialMul = true

	ra := runGoldenSrc(t, serialMulSrc, atomic)
	rs := runGoldenSrc(t, serialMulSrc, serial)
	if rs.Cycles >= ra.Cycles {
		t.Fatalf("serial multiplier did not shorten the chain: %d vs %d cycles",
			rs.Cycles, ra.Cycles)
	}
}

// narrowSrc keeps every loop-carried value small, so all sliced results
// are zero-extensions of their low slice, and routes one through a logic
// op whose upper input slices gate the loop branch comparison.
const narrowSrc = `
main:
	li $s0, 400
	li $t0, 9
	li $t1, 5
loop:
	addu $t2, $t0, $t1
	xor  $t3, $t2, $t1
	and  $t4, $t3, $t2
	addu $t0, $t4, $t1
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`

// TestNarrowWidthUpperSliceForwarding: when a producer's value is narrow,
// srcAvail hands consumers the upper slices as soon as the low slice is
// done (p.narrow arm). The machine with NarrowWidth must never be slower
// on an all-narrow loop.
func TestNarrowWidthUpperSliceForwarding(t *testing.T) {
	base := BitSliced(4)
	base.Name = "wide"
	nw := BitSliced(4)
	nw.Name = "narrow"
	nw.NarrowWidth = true

	rb := runGoldenSrc(t, narrowSrc, base)
	rn := runGoldenSrc(t, narrowSrc, nw)
	if rn.Cycles > rb.Cycles {
		t.Fatalf("narrow-width slowed an all-narrow loop: %d vs %d cycles",
			rn.Cycles, rb.Cycles)
	}
}

// shiftSrc routes a computed, changing shift amount into sllv/srlv, so
// the amountSrc arm of depsAvail (only slice 0 of the amount operand is
// consumed) is on the critical path every iteration.
const shiftSrc = `
main:
	li $s0, 300
	li $t0, 1
	li $t1, 0x1234
loop:
	andi $t2, $s0, 7
	sllv $t3, $t1, $t2
	srlv $t4, $t3, $t2
	addu $t1, $t4, $t0
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`

// TestVariableShiftAmountOperand pins the variable-shift rule: the whole
// shift needs only slice 0 of its amount operand, with and without
// out-of-order slices (the carry/in-order arm right
// after the amountSrc arm).
func TestVariableShiftAmountOperand(t *testing.T) {
	ooo := BitSliced(4)
	ooo.Name = "shift-ooo"
	ino := BitSliced(4)
	ino.Name = "shift-inorder"
	ino.OoOSlices = false

	ro := runGoldenSrc(t, shiftSrc, ooo)
	runGoldenSrc(t, shiftSrc, ino)
	if ro.Insts == 0 || ro.IPC <= 0 {
		t.Fatalf("shift loop did not execute: %+v", ro)
	}
}

// missSrc walks a 128 KiB buffer with a dependent consumer on every
// load: twice the L1D capacity, so steady state misses on every line and
// each consumer first wakes on the predicted L1-hit latency.
const missSrc = `
.data
buf: .space 131072
.text
main:
	li $s0, 4096
	la $s1, buf
	li $s2, 0
	li $t3, 0
loop:
	lw $t0, 0($s1)
	addu $t3, $t3, $t0
	addiu $s1, $s1, 64
	addiu $s2, $s2, 64
	li $t4, 131072
	bne $s2, $t4, skip
	la $s1, buf
	li $s2, 0
skip:
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`

// TestReplayRetryRewakeup: consumers of missing loads speculatively wake
// at the predicted hit latency, lose their issue slot, and must be
// re-enqueued at retryC (the scheduler's replay arm). The run must
// observe replays, and their count must match the fixture (the Result
// comparison inside runGoldenSrc covers Replays).
func TestReplayRetryRewakeup(t *testing.T) {
	cfg := BitSliced(2)
	cfg.Name = "replay"
	r := runGoldenSrc(t, missSrc, cfg)
	if r.Replays == 0 {
		t.Fatal("expected load-hit misspeculation replays, saw none")
	}
	if r.L1DMissRate < 0.5 {
		t.Fatalf("miss loop not missing: L1D miss rate %.2f", r.L1DMissRate)
	}
}
