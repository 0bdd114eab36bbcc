package check_test

import (
	"strings"
	"testing"

	"pok/internal/check"
	"pok/internal/check/inject"
	"pok/internal/core"
	"pok/internal/workload"
)

func runChecked(t *testing.T, name string, cfg core.Config, opts check.Options) *check.Report {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	opts.Benchmark = name
	opts.Warmup = w.FastForward
	rep, err := check.RunChecked(prog, cfg, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// TestCheckedCleanRuns holds three workloads to the lockstep oracle and
// the invariant checker with the core fed by either emulator: the
// machine must commit the reference's exact architectural stream with
// no violations.
func TestCheckedCleanRuns(t *testing.T) {
	t.Parallel()
	for _, bench := range []string{"gzip", "li", "mcf"} {
		for _, legacy := range []bool{false, true} {
			name := bench + "/" + emuName(legacy)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := core.BitSliced(2)
				cfg.LegacyEmulator = legacy
				rep := runChecked(t, bench, cfg, check.Options{MaxInsts: 60_000})
				if !rep.OK {
					t.Fatalf("checked run failed: %s\n%s", rep.FailKind, rep.Error)
				}
				if rep.Insts == 0 || rep.Cycles == 0 {
					t.Fatalf("empty run: %+v", rep)
				}
			})
		}
	}
}

// emuName labels a run by the emulator feeding the core: "legacy" for
// the switch interpreter, "event" for the default machine (the fast
// emulator under the event scheduler).
func emuName(legacy bool) string {
	if legacy {
		return "legacy"
	}
	return "event"
}

// TestCheckedHooksPreserveResult is the nil-cheap identity guarantee
// from the other side: enabling the oracle and the invariant checker
// must not change a single Result counter relative to an unchecked run.
func TestCheckedHooksPreserveResult(t *testing.T) {
	t.Parallel()
	w, err := workload.Get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	run := func(checked bool) *core.Result {
		prog, err := w.Program(w.DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.BitSliced(2)
		if checked {
			oracle, err := check.NewOracle(prog, w.FastForward)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Oracle = oracle
			cfg.Invariants = &core.InvariantConfig{}
		}
		r, err := core.RunWarm(prog, cfg, w.FastForward, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain, checked := run(false), run(true)
	if *plain != *checked {
		t.Errorf("oracle+invariants changed the Result\nplain:\n%s\nchecked:\n%s",
			plain.Summary(), checked.Summary())
	}
}

// TestInjectionRecovery hammers the machine with every recoverable fault
// kind at once — slice flips, forced way mispredicts, fake
// disambiguation conflicts — on the default machine, with the core fed
// by the legacy emulator, and with wrong-path fetch on. The machine must
// recover from every fault to an oracle-identical commit stream.
func TestInjectionRecovery(t *testing.T) {
	t.Parallel()
	type variant struct {
		name      string
		legacy    bool
		wrongPath bool
	}
	for _, v := range []variant{
		{"event", false, false},
		{"legacy", true, false},
		{"event-wrongpath", false, true},
	} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			cfg := core.BitSliced(2)
			cfg.LegacyEmulator = v.legacy
			cfg.WrongPath = v.wrongPath
			inj := inject.New(inject.Options{
				Seed:          7,
				SliceFlipRate: 0.02,
				WayMissRate:   0.10,
				ConflictRate:  0.05,
			})
			rep := runChecked(t, "gzip", cfg, check.Options{
				MaxInsts: 60_000,
				Injector: inj,
			})
			if !rep.OK {
				t.Fatalf("injection broke architectural state: %s\n%s",
					rep.FailKind, rep.Error)
			}
			if inj.Total() < 100 {
				t.Fatalf("campaign too weak: only %d faults delivered (%v)",
					inj.Total(), rep.Faults)
			}
			if rep.Replays == 0 {
				t.Fatal("injected slice flips produced no replays")
			}
		})
	}
}

// TestReplayStormRecovery drives periodic bursts where every slice of
// consecutive instructions is corrupted at first issue — a worst-case
// pile-up of simultaneous replays — on the slice-by-4 machine, fed by
// either emulator.
func TestReplayStormRecovery(t *testing.T) {
	t.Parallel()
	for _, legacy := range []bool{false, true} {
		legacy := legacy
		t.Run(emuName(legacy), func(t *testing.T) {
			t.Parallel()
			cfg := core.BitSliced(4)
			cfg.LegacyEmulator = legacy
			inj := inject.New(inject.Options{
				Seed:       11,
				StormEvery: 1_000,
				StormLen:   16,
			})
			rep := runChecked(t, "li", cfg, check.Options{
				MaxInsts: 40_000,
				Injector: inj,
			})
			if !rep.OK {
				t.Fatalf("replay storm broke the machine: %s\n%s", rep.FailKind, rep.Error)
			}
			if got := rep.Faults["storm-flip"]; got < 500 {
				t.Fatalf("storm too weak: %d flips", got)
			}
		})
	}
}

// TestSeededDivergence proves the oracle detects corruption: the
// MutateCommit test hook flips one destination bit at a chosen commit,
// and the report must name the seq, cycle and field.
func TestSeededDivergence(t *testing.T) {
	t.Parallel()
	cfg := core.BitSliced(2)
	inj := inject.New(inject.Options{Seed: 3, CorruptOn: true, CorruptAt: 500})
	rep := runChecked(t, "li", cfg, check.Options{
		MaxInsts: 20_000,
		Injector: inj,
	})
	if rep.OK {
		t.Fatal("corrupted commit went undetected")
	}
	if rep.FailKind != "divergence" || rep.Divergence == nil {
		t.Fatalf("wrong failure class: %s (%s)", rep.FailKind, rep.Error)
	}
	d := rep.Divergence
	if d.Index != 500 {
		t.Errorf("divergence at commit %d, corrupted 500", d.Index)
	}
	if d.Seq == 0 || d.Cycle == 0 || d.Field == "" || d.Want == d.Got {
		t.Errorf("underspecified divergence: %+v", d)
	}
	if len(rep.Trace) == 0 {
		t.Error("no telemetry trace window around the divergence")
	}
	for _, line := range rep.Trace {
		if !strings.Contains(line, "seq=") {
			t.Fatalf("malformed trace line %q", line)
		}
	}
}

// TestWedgeDeadlock proves the watchdog converts a wedged pipeline into
// a structured report instead of a hang: one slice is corrupted on
// every issue attempt, so its instruction can never complete.
func TestWedgeDeadlock(t *testing.T) {
	t.Parallel()
	cfg := core.BitSliced(2)
	inj := inject.New(inject.Options{Seed: 5, WedgeOn: true, WedgeSeq: 300})
	rep := runChecked(t, "li", cfg, check.Options{
		MaxInsts:   20_000,
		Injector:   inj,
		Invariants: &core.InvariantConfig{DeadlockBudget: 2_000},
	})
	if rep.OK {
		t.Fatal("wedged machine reported success")
	}
	if rep.FailKind != "deadlock" || rep.Deadlock == nil {
		t.Fatalf("wrong failure class: %s (%s)", rep.FailKind, rep.Error)
	}
	if rep.Deadlock.Budget != 2_000 || rep.Deadlock.Dump == "" {
		t.Errorf("underspecified deadlock report: %+v", rep.Deadlock)
	}
}
