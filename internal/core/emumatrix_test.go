package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pok/internal/asm"
	"pok/internal/emu"
	"pok/internal/workload"
)

// The emulator differential: the direct-threaded fast-path interpreter
// and the original switch-dispatch interpreter must be interchangeable
// underneath the timing model. Both run the same program and the two
// Results are compared wholesale — any divergence in the DynInst stream
// the emulator feeds the timing model would show up as a differing
// counter.

// runMatrix runs the program on both emulators, each on a freshly built
// copy, and fails unless they agree — on the Result when the runs
// succeed, or on the error text when the program wedges the machine (a
// deliberately pathological repro bundle must wedge it identically on
// both).
func runMatrix(t *testing.T, name string, mk func() (*emu.Program, error),
	ff uint64, cfg Config, maxInsts uint64) {
	t.Helper()
	var res [2]*Result
	var errs [2]error
	for i, legacy := range []bool{false, true} {
		prog, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.LegacyEmulator = legacy
		res[i], errs[i] = RunWarm(prog, c, ff, maxInsts)
	}
	switch {
	case (errs[0] == nil) != (errs[1] == nil):
		t.Fatalf("%s: fast emulator error %v, legacy emulator error %v", name, errs[0], errs[1])
	case errs[0] != nil:
		if errs[0].Error() != errs[1].Error() {
			t.Fatalf("%s: error mismatch\nfast:   %v\nlegacy: %v", name, errs[0], errs[1])
		}
	case *res[0] != *res[1]:
		t.Errorf("%s: legacy emulator diverges from fast\nfast:\n%s\nlegacy:\n%s",
			name, res[0].Summary(), res[1].Summary())
	}
}

// TestEmulatorMatrixMatches sweeps every registered workload through the
// emulator differential on the base and slice-by-2 machines, then
// replays both checked-in repro bundles through it.
// Short mode trims the budget so the race-detector smoke job stays fast.
func TestEmulatorMatrixMatches(t *testing.T) {
	insts := uint64(40_000)
	if testing.Short() {
		insts = 10_000
	}
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, cfg := range []Config{BaseConfig(), BitSliced(2)} {
			t.Run(fmt.Sprintf("%s/%s", bench, cfg.Name), func(t *testing.T) {
				t.Parallel()
				runMatrix(t, bench, func() (*emu.Program, error) {
					return w.Program(w.DefaultScale)
				}, w.FastForward, cfg, insts)
			})
		}
	}

	root := filepath.Join("..", "gen", "testdata", "repros")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		t.Run("repro/"+e.Name(), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(filepath.Join(dir, "prog.s"))
			if err != nil {
				t.Fatal(err)
			}
			runMatrix(t, e.Name(), func() (*emu.Program, error) {
				return asm.Assemble(string(src))
			}, 0, BitSliced(2), insts)
		})
	}
}
