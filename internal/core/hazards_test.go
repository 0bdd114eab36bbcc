package core

import (
	"strings"
	"testing"

	"pok/internal/telemetry"
)

// TestWindowFullBackpressure: with a tiny RUU, a long-latency instruction
// at the window head throttles the whole machine.
func TestWindowFullBackpressure(t *testing.T) {
	src := `
main:
	li $s0, 300
	li $t0, 7
	li $t1, 3
loop:
	div $t0, $t1
	mflo $t2
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	big := BaseConfig()
	small := BaseConfig()
	small.WindowSize = 4
	small.Name = "tiny-window"
	rb := run(t, mustProg(t, src), big)
	rs := run(t, mustProg(t, src), small)
	if rs.IPC >= rb.IPC {
		t.Fatalf("tiny window not slower: %.3f vs %.3f", rs.IPC, rb.IPC)
	}
}

// TestLSQFullBackpressure: a 2-entry LSQ throttles a memory-dense loop.
func TestLSQFullBackpressure(t *testing.T) {
	src := `
.data
buf: .space 256
.text
main:
	li $s0, 300
	la $s1, buf
loop:
	lw $t0, 0($s1)
	lw $t1, 4($s1)
	lw $t2, 8($s1)
	sw $t0, 12($s1)
	sw $t1, 16($s1)
	sw $t2, 20($s1)
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	big := BaseConfig()
	small := BaseConfig()
	small.LSQSize = 2
	small.Name = "tiny-lsq"
	rb := run(t, mustProg(t, src), big)
	rs := run(t, mustProg(t, src), small)
	if rs.IPC >= rb.IPC {
		t.Fatalf("tiny LSQ not slower: %.3f vs %.3f", rs.IPC, rb.IPC)
	}
}

// TestDivStructuralHazard: back-to-back independent divides serialize on
// the single non-pipelined divider.
func TestDivStructuralHazard(t *testing.T) {
	src := `
main:
	li $s0, 100
	li $t0, 1000
	li $t1, 7
loop:
	divu $t0, $t1
	divu $t0, $t1
	divu $t0, $t1
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	r := run(t, mustProg(t, src), BaseConfig())
	// 3 divides x 20 cycles each, serialized: at least 60 cycles/iter.
	cyclesPerIter := float64(r.Cycles) / 100
	if cyclesPerIter < 55 {
		t.Fatalf("divides overlapped: %.1f cycles/iter", cyclesPerIter)
	}
}

// TestMulPipelined: independent multiplies pipeline through the single
// multiplier at one per cycle, unlike divides.
func TestMulPipelined(t *testing.T) {
	src := `
main:
	li $s0, 200
	li $t0, 9
	li $t1, 7
loop:
	mult $t0, $t1
	mult $t0, $t1
	mult $t0, $t1
	mult $t0, $t1
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	r := run(t, mustProg(t, src), BaseConfig())
	cyclesPerIter := float64(r.Cycles) / 200
	if cyclesPerIter > 10 {
		t.Fatalf("multiplies serialized: %.1f cycles/iter", cyclesPerIter)
	}
}

// TestSyscallSerializes: a syscall waits for the window to drain, so a
// syscall-dense loop runs far below the machine width.
func TestSyscallSerializes(t *testing.T) {
	src := `
main:
	li $s0, 200
loop:
	li $v0, 9        # sbrk(0): a benign syscall
	li $a0, 0
	syscall
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	r := run(t, mustProg(t, src), BaseConfig())
	if r.IPC > 1.0 {
		t.Fatalf("syscalls did not serialize: IPC %.3f", r.IPC)
	}
}

// TestFPLatencies: an FP add chain runs at the 2-cycle FP latency and an
// FP divide chain at the 12-cycle one.
func TestFPLatencies(t *testing.T) {
	mk := func(op string) string {
		return `
main:
	li $s0, 200
	li.s $f1, 1.5
	li.s $f2, 1.125
loop:
	` + op + ` $f1, $f1, $f2
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	}
	radd := run(t, mustProg(t, mk("add.s")), BaseConfig())
	rdiv := run(t, mustProg(t, mk("div.s")), BaseConfig())
	addPer := float64(radd.Cycles) / 200
	divPer := float64(rdiv.Cycles) / 200
	if addPer < 1.8 || addPer > 3.5 {
		t.Fatalf("fp add chain %.2f cycles/iter, want ~2", addPer)
	}
	if divPer < 11 || divPer > 14 {
		t.Fatalf("fp div chain %.2f cycles/iter, want ~12", divPer)
	}
}

// TestICacheMissStalls: code spread over many lines (poor locality) costs
// fetch stalls compared to a compact loop doing the same work.
func TestICacheMissStalls(t *testing.T) {
	// A program whose working set exceeds the 64KB L1I: 20k instructions
	// of straight-line code executed once.
	var b strings.Builder
	b.WriteString("main:\n")
	for i := 0; i < 20_000; i++ {
		b.WriteString("\taddu $t0, $t0, $t1\n")
	}
	b.WriteString("\tli $v0, 10\n\tsyscall\n")
	r := run(t, mustProg(t, b.String()), BaseConfig())
	if r.L1IMissRate < 0.5 {
		t.Fatalf("straight-line run should miss L1I heavily: %.2f", r.L1IMissRate)
	}
	// The same instruction count in a tight loop stays resident.
	src := `
main:
	li $s0, 2500
	li $t1, 1
loop:
	addu $t0, $t0, $t1
	addu $t0, $t0, $t1
	addu $t0, $t0, $t1
	addu $t0, $t0, $t1
	addu $t0, $t0, $t1
	addu $t0, $t0, $t1
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	rl := run(t, mustProg(t, src), BaseConfig())
	if rl.L1IMissRate > 0.05 {
		t.Fatalf("loop should stay I-cache resident: %.3f", rl.L1IMissRate)
	}
	if rl.IPC <= r.IPC {
		t.Fatalf("I-cache misses free: loop %.3f vs straight %.3f", rl.IPC, r.IPC)
	}
}

// TestTraceOutput: the pipeline trace pok-sim -trace prints, the
// wavefront of a recorded run, marks fetch, dispatch, the issue of each
// slice of the 2-sliced machine and commit in its instruction rows.
func TestTraceOutput(t *testing.T) {
	cfg := BitSliced(2)
	rec := cfg.NewRecorder(0)
	cfg.Collector = rec
	if _, err := Run(chainProg(t, 3, 2), cfg, 0); err != nil {
		t.Fatal(err)
	}
	out := telemetry.RenderTimeline(rec.Events(), telemetry.TimelineOptions{})
	// Row cells start after the 26-column "#seq mark pc" prefix.
	var cells strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") && len(line) > 26 {
			cells.WriteString(line[26:])
		}
	}
	for _, mark := range []string{"F", "D", "0", "1", "C"} {
		if !strings.Contains(cells.String(), mark) {
			t.Fatalf("trace rows missing mark %q:\n%s", mark, out[:min(len(out), 1200)])
		}
	}
}

// TestJalrMispredictRecovers: an indirect jump through a cold BTB blocks
// fetch until it resolves, and the machine still completes.
func TestJalrMispredictRecovers(t *testing.T) {
	src := `
main:
	li $s0, 100
	la $t9, f1
	la $t8, f2
loop:
	andi $t0, $s0, 1
	beqz $t0, pick2
	move $t7, $t9
	b call
pick2:
	move $t7, $t8
call:
	jalr $t7
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
f1:
	addiu $s1, $s1, 1
	jr $ra
f2:
	addiu $s2, $s2, 1
	jr $ra
`
	r := run(t, mustProg(t, src), BaseConfig())
	if r.Insts == 0 {
		t.Fatal("did not complete")
	}
}

// TestIssueQueueBackpressure: a tiny per-slice issue queue throttles
// dispatch behind a long-latency producer even when the window is large.
func TestIssueQueueBackpressure(t *testing.T) {
	// Every instruction depends on a divide, so unissued ops pile up in
	// the issue queue.
	src := `
main:
	li $s0, 200
	li $t0, 10000
	li $t1, 7
loop:
	divu $t0, $t1
	mflo $t2
	addu $t3, $t2, $t2
	addu $t4, $t3, $t3
	addu $t5, $t4, $t4
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	free := BaseConfig()
	tight := BaseConfig()
	tight.IssueQueueSize = 4
	tight.Name = "tiny-iq"
	rf := run(t, mustProg(t, src), free)
	rt := run(t, mustProg(t, src), tight)
	if rt.Insts != rf.Insts {
		t.Fatalf("committed counts diverge: %d vs %d", rt.Insts, rf.Insts)
	}
	if rt.IPC >= rf.IPC {
		t.Fatalf("tiny issue queue not slower: %.3f vs %.3f", rt.IPC, rf.IPC)
	}
}

// TestDTLBMissesCost: loads striding across many pages pay translation
// walks when the data TLB is enabled.
func TestDTLBMissesCost(t *testing.T) {
	src := `
main:
	li $s0, 400
	li $t0, 0x10000000
	li $t1, 0x2000       # 8KB stride: a new page every other load
loop:
	lw $t2, 0($t0)
	addu $t0, $t0, $t1
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	off := BaseConfig()
	on := BaseConfig()
	on.UseDTLB = true
	on.Name = "base+dtlb"
	roff := run(t, mustProg(t, src), off)
	ron := run(t, mustProg(t, src), on)
	if ron.DTLBMissRate <= 0.5 {
		t.Fatalf("DTLB miss rate %.2f, expected page-stride thrashing", ron.DTLBMissRate)
	}
	if roff.DTLBMissRate != 0 {
		t.Fatal("DTLB stats active while disabled")
	}
	if ron.Cycles <= roff.Cycles {
		t.Fatalf("TLB walks free: %d vs %d cycles", ron.Cycles, roff.Cycles)
	}
	// A page-resident loop barely notices the TLB.
	resident := `
.data
buf: .space 64
.text
main:
	li $s0, 400
	la $t0, buf
loop:
	lw $t2, 0($t0)
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	rres := run(t, mustProg(t, resident), on)
	if rres.DTLBMissRate > 0.05 {
		t.Fatalf("resident loop thrashes TLB: %.3f", rres.DTLBMissRate)
	}
}

// TestStallAttribution: each stall counter fires under the condition that
// causes it and stays silent otherwise.
func TestStallAttribution(t *testing.T) {
	// Mispredict stalls on the unpredictable kernel.
	r := run(t, mustProg(t, mispredictHeavy), BaseConfig())
	if r.StallMispredict == 0 {
		t.Fatal("no mispredict stall cycles on unpredictable kernel")
	}
	// Window-full stalls behind a divide with a tiny RUU.
	cfg := BaseConfig()
	cfg.WindowSize = 4
	rw := run(t, mustProg(t, `
main:
	li $s0, 50
	li $t0, 99
	li $t1, 7
loop:
	div $t0, $t1
	mflo $t2
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`), cfg)
	if rw.StallWindowFull == 0 {
		t.Fatal("no window-full stalls with 4-entry RUU behind divides")
	}
	// LSQ-full stalls with a 2-entry queue.
	cfg2 := BaseConfig()
	cfg2.LSQSize = 2
	rl := run(t, mustProg(t, `
.data
b: .space 64
.text
main:
	li $s0, 100
	la $s1, b
loop:
	lw $t0, 0($s1)
	lw $t1, 4($s1)
	lw $t2, 8($s1)
	lw $t3, 12($s1)
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`), cfg2)
	if rl.StallLSQFull == 0 {
		t.Fatal("no LSQ-full stalls with 2-entry queue")
	}
	// A clean straight loop reports none of the structural stalls.
	rc := run(t, chainProg(t, 50, 4), BaseConfig())
	if rc.StallWindowFull != 0 || rc.StallLSQFull != 0 || rc.StallIQFull != 0 {
		t.Fatalf("phantom structural stalls: %+v", rc)
	}
}

// TestLocalPredictorOption: the local-history ablation runs and nails a
// short periodic branch that gshare also learns; config conflicts are
// rejected.
func TestLocalPredictorOption(t *testing.T) {
	src := `
main:
	li $s0, 3000
loop:
	li $t1, 3
	remu $t0, $s0, $t1
	beqz $t0, hit
	nop
hit:
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	cfg := BaseConfig()
	cfg.UseLocal = true
	cfg.Name = "base+local"
	r := run(t, mustProg(t, src), cfg)
	if r.BranchAccuracy < 0.9 {
		t.Fatalf("local predictor accuracy %.3f on periodic branch", r.BranchAccuracy)
	}
	bad := BaseConfig()
	bad.UseLocal = true
	bad.UseBimodal = true
	if err := bad.Validate(); err == nil {
		t.Fatal("both predictor ablations accepted")
	}
}
