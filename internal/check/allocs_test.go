package check_test

import (
	"runtime"
	"testing"

	"pok/internal/asm"
	"pok/internal/check"
	"pok/internal/core"
	"pok/internal/gen"
)

// maxCheckedBytesPerRun bounds what one RunChecked of a generated
// program allocates: the timing core with its caches and predictor, the
// lockstep oracle's emulator, the invariant checker and a telemetry ring
// sized to the events the run records. The run below measures about
// 2.8 MB. A ring allocated at its cap (86 MB), or any per-run set-up
// that scales with a capacity rather than with the program, fails it.
const maxCheckedBytesPerRun = 4 << 20

// TestRunCheckedBytesPerRun gates the per-run allocation of the checked
// path (the soak and checked-gen shape) on one fixed generated program.
// Bytes allocated do not depend on the host, so the bound can be tight.
func TestRunCheckedBytesPerRun(t *testing.T) {
	src := gen.New(gen.Options{Seed: gen.ProgramSeed(1, 0)}).Source()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rep, err := check.RunChecked(prog, core.BitSliced(4), check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("RunChecked: %s: %s", rep.FailKind, rep.Error)
		}
	}
	run() // first-use costs (lazily built tables) are not per run
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("RunChecked: %d bytes, %d objects per run", perRun, (after.Mallocs-before.Mallocs)/runs)
	if perRun > maxCheckedBytesPerRun {
		t.Errorf("RunChecked allocates %d bytes per run, want <= %d", perRun, maxCheckedBytesPerRun)
	}
}
