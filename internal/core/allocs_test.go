package core

import (
	"testing"

	"pok/internal/workload"
)

// A quiet timing-core cycle — one in which no stage does any work — must
// not allocate: the event-driven scheduler's whole point is that such
// cycles cost a handful of empty checks, and an allocation on that path
// would put GC pressure proportional to simulated time, not to work.
// The regression guard steers a machine into a provably quiet stretch
// (a 20-cycle divide in flight with everything already fetched) and
// measures cycle() there.
func TestQuietCycleZeroAllocs(t *testing.T) {
	prog := mustProg(t, `main:
	li $t0, 7
	li $t1, 3
	div2 $t0, $t1
	mflo $t2
	li $v0, 10
	syscall
`)
	s, err := NewSim(prog, BaseConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Advance until the skip logic proves a long quiet stretch ahead —
	// the same condition under which Run would jump s.now.
	var quietLen int64
	for i := 0; i < 200; i++ {
		if _, err := s.cycle(); err != nil {
			t.Fatal(err)
		}
		if s.drained() {
			t.Fatal("program drained before a quiet stretch was found")
		}
		if nxt := s.nextCycle(0, 10_000); nxt > s.now+5 {
			quietLen = nxt - s.now - 1
			break
		}
		s.now++
	}
	if quietLen == 0 {
		t.Fatal("no quiet stretch found")
	}

	runs := int(quietLen) - 1
	if runs > 10 {
		runs = 10
	}
	if runs < 3 {
		t.Fatalf("quiet stretch too short to measure (%d cycles)", quietLen)
	}
	allocs := testing.AllocsPerRun(runs-1, func() {
		s.now++
		if _, err := s.cycle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("quiet cycle allocates %.1f objects/cycle, want 0", allocs)
	}
}

// maxSampledAllocsPerInst bounds RunSampled's allocations per covered
// instruction. The run below measures about 0.024 (some 2,000 objects,
// nearly all set-up and detailed windows); copying a DynInst out per
// warmed instruction costs about 2.
const maxSampledAllocsPerInst = 0.05

// TestRunSampledAllocsPerCoveredInst: RunSampled spends nearly all of
// its covered instructions in functional warming, which hands each
// instruction to the caches and the branch predictor through one reused
// emu.DynInst, so what it allocates must not grow with the instructions
// it warms.
func TestRunSampledAllocsPerCoveredInst(t *testing.T) {
	w := workload.MustGet("gzip")
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	const warmup, sampleLen, skipLen, nSamples = 20_000, 2_000, 20_000, 3
	const covered = warmup + nSamples*(sampleLen+skipLen)
	allocs := testing.AllocsPerRun(2, func() {
		res, err := RunSampled(prog, BitSliced(4), warmup, sampleLen, skipLen, nSamples)
		if err != nil {
			t.Fatal(err)
		}
		if res.Insts != nSamples*sampleLen {
			t.Fatalf("sampled %d detailed instructions, want %d", res.Insts, nSamples*sampleLen)
		}
	})
	perInst := allocs / covered
	t.Logf("RunSampled: %.0f allocs per run, %.4f per covered instruction", allocs, perInst)
	if perInst > maxSampledAllocsPerInst {
		t.Errorf("RunSampled allocates %.4f objects per covered instruction, want <= %v", perInst, maxSampledAllocsPerInst)
	}
}
