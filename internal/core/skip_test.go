package core

import (
	"testing"

	"pok/internal/workload"
)

// TestSkipMatchesNoSkip is the quiet-cycle skip's own differential: the
// event scheduler with skipping on must produce the same Result as the
// same scheduler simulating every cycle. Every workload runs under the
// Figure 11 end points and the kitchen-sink machine, once normally and
// once with the skip gate forced off. The skip has no memory-stage
// bound of its own: memory candidates on the wheel bound it, so a memory
// event the wheel missed would show here as a skipped-over cycle.
func TestSkipMatchesNoSkip(t *testing.T) {
	insts := uint64(50_000)
	if testing.Short() {
		insts = 20_000
	}
	run := func(t *testing.T, w *workload.Workload, cfg Config, skip bool) *Result {
		t.Helper()
		prog, err := w.Program(w.DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSim(prog, cfg, insts)
		if err != nil {
			t.Fatal(err)
		}
		if !s.skipOK {
			t.Fatal("skip gate is off in the reference configuration")
		}
		s.skipOK = skip
		if w.FastForward > 0 {
			if err := s.FastForward(w.FastForward); err != nil {
				t.Fatal(err)
			}
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, cfg := range []Config{BaseConfig(), SimplePipelined(4), BitSliced(4), kitchenSinkConfig()} {
			cfg := cfg
			name := bench + "/" + cfg.Name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				on, off := run(t, w, cfg, true), run(t, w, cfg, false)
				if *on != *off {
					t.Errorf("%s: skip changes the Result\nskip on:\n%s\nskip off:\n%s",
						name, on.Summary(), off.Summary())
				}
			})
		}
	}
}
