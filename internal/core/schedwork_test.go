package core

import (
	"testing"

	"pok/internal/workload"
)

// TestSchedulerWorkExactlyOnce pins the event scheduler's work per
// slice-op: every wheel push is admitted exactly once (no duplicate or
// stale candidate is ever pushed), and the speculative wake time is
// evaluated about once per issue attempt instead of on every producer
// event. It counts work; it does not time anything.
func TestSchedulerWorkExactlyOnce(t *testing.T) {
	const insts = 20_000
	for _, gc := range []struct {
		key string
		cfg Config
	}{
		{"base", BaseConfig()},
		{"simple4", SimplePipelined(4)},
		{"slice4", BitSliced(4)},
	} {
		var sum schedWork
		var committed, replays uint64
		for _, bench := range workload.Names() {
			w := workload.MustGet(bench)
			prog, err := w.Program(w.DefaultScale)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSim(prog, gc.cfg, insts)
			if err != nil {
				t.Fatal(err)
			}
			if w.FastForward > 0 {
				if err := s.FastForward(w.FastForward); err != nil {
					t.Fatal(err)
				}
			}
			r, err := s.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, gc.key, err)
			}
			wk := s.work
			if wk.pushes != wk.admits {
				t.Errorf("%s/%s: %d wheel pushes but %d admits", bench, gc.key, wk.pushes, wk.admits)
			}
			if limit := 1.25 * float64(wk.issues+r.Replays); float64(wk.evals) > limit {
				t.Errorf("%s/%s: %d wake evaluations for %d issues + %d replays (limit %.0f)",
					bench, gc.key, wk.evals, wk.issues, r.Replays, limit)
			}
			sum.evals += wk.evals
			sum.pushes += wk.pushes
			sum.admits += wk.admits
			sum.issues += wk.issues
			committed += r.Insts
			replays += r.Replays
		}
		per := func(n uint64) float64 { return float64(n) / float64(committed) }
		t.Logf("%-7s per committed inst: %.2f evals, %.2f pushes, %.2f admits, %.2f issues, %.3f replays",
			gc.key, per(sum.evals), per(sum.pushes), per(sum.admits), per(sum.issues), per(replays))
	}
}
