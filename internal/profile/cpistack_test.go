package profile_test

import (
	"fmt"
	"testing"

	"pok/internal/core"
	"pok/internal/profile"
	"pok/internal/workload"
)

// The CPI stack's headline contract is conservation: every cycle of a
// run is attributed to exactly one component, so the per-component
// cycles sum to core.Result.Cycles exactly — not approximately — for
// every baked-in workload, under the simple pipeline and both
// bit-slice widths, fed by either emulator. The companion contract is that
// profiling is pure observation: a run with the Live collector
// attached produces a Result bit-identical to the bare run's.

func invariantConfigs() []core.Config {
	return []core.Config{
		core.SimplePipelined(4),
		core.BitSliced(2),
		core.BitSliced(4),
	}
}

func runProfiled(t *testing.T, bench string, cfg core.Config, insts uint64) (*core.Result, *profile.Live) {
	t.Helper()
	w := workload.MustGet(bench)
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	lc := profile.NewLive(nil)
	lc.Benchmark, lc.Config = bench, cfg.Name
	cfg.Collector = lc
	r, err := core.RunWarm(prog, cfg, w.FastForward, insts)
	if err != nil {
		t.Fatal(err)
	}
	return r, lc
}

func runPlain(t *testing.T, bench string, cfg core.Config, insts uint64) *core.Result {
	t.Helper()
	w := workload.MustGet(bench)
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.RunWarm(prog, cfg, w.FastForward, insts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCPIStackAccountsEveryCycle sweeps every workload x config x
// emulator (legacy=true feeds the core from the switch interpreter) and
// requires exact cycle conservation plus a bit-identical Result with and
// without the profiler attached.
func TestCPIStackAccountsEveryCycle(t *testing.T) {
	const insts = 10_000
	for _, bench := range workload.Names() {
		for _, base := range invariantConfigs() {
			for _, legacy := range []bool{false, true} {
				cfg := base
				cfg.LegacyEmulator = legacy
				name := fmt.Sprintf("%s/%s/legacy=%v", bench, cfg.Name, legacy)
				t.Run(name, func(t *testing.T) {
					r, lc := runProfiled(t, bench, cfg, insts)
					st, err := lc.Stack()
					if err != nil {
						t.Fatal(err)
					}
					if got := st.Sum(); got != r.Cycles {
						t.Errorf("attributed %d cycles, run has %d\n%s",
							got, r.Cycles, st.Render())
					}
					if st.Insts != r.Insts {
						t.Errorf("stack saw %d commits, run committed %d", st.Insts, r.Insts)
					}
					if lc.Cycles() != r.Cycles {
						t.Errorf("collector sampled %d cycles, run has %d", lc.Cycles(), r.Cycles)
					}

					plain := runPlain(t, bench, cfg, insts)
					got, want := *r, *plain
					got.Telemetry, want.Telemetry = nil, nil
					if got != want {
						t.Errorf("profiler perturbed the run:\nwith:\n%s\nwithout:\n%s",
							r.Summary(), plain.Summary())
					}
				})
			}
		}
	}
}

// TestCriticalPathConservation holds the path extractor to its own
// telescoping invariant on a real stream: the per-edge-kind totals sum
// to the path length, and the chain is non-empty for any committing
// run.
func TestCriticalPathConservation(t *testing.T) {
	for _, base := range invariantConfigs() {
		r, lc := runProfiled(t, "gzip", base, 10_000)
		cp, err := lc.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, k := range cp.Kind {
			sum += k
		}
		if sum != cp.Length {
			t.Errorf("%s: edge kinds sum to %d, path length %d", base.Name, sum, cp.Length)
		}
		if cp.Length <= 0 || cp.Length > r.Cycles {
			t.Errorf("%s: path length %d outside (0, %d]", base.Name, cp.Length, r.Cycles)
		}
		if len(cp.Steps) == 0 {
			t.Errorf("%s: empty chain", base.Name)
		}
	}
}
