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

// TestMemoryStageWork pins the memory stage's work per memory op: a load
// is visited only once its address gate has opened, and then once plus
// one more time per cycle it lost cache-port arbitration or was held
// back by disambiguation; every memory candidate pushed onto the wheel
// is admitted to the due list exactly once. The memory counters are
// separate from the slice counters, so TestSchedulerWorkExactlyOnce's
// pushes == admits still counts slice candidates only.
func TestMemoryStageWork(t *testing.T) {
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
		var committed, loads uint64
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
			if wk.loadEarly != 0 {
				t.Errorf("%s/%s: %d load visits before the address gate opened", bench, gc.key, wk.loadEarly)
			}
			if limit := r.Loads + wk.portRetries + wk.waitRetries; wk.loadVisits > limit {
				t.Errorf("%s/%s: %d load visits for %d loads + %d port + %d LoadWait retries",
					bench, gc.key, wk.loadVisits, r.Loads, wk.portRetries, wk.waitRetries)
			}
			if wk.memPushes != wk.memAdmits {
				t.Errorf("%s/%s: %d memory candidates pushed but %d admitted",
					bench, gc.key, wk.memPushes, wk.memAdmits)
			}
			sum.memPushes += wk.memPushes
			sum.loadVisits += wk.loadVisits
			sum.portRetries += wk.portRetries
			sum.waitRetries += wk.waitRetries
			committed += r.Insts
			loads += r.Loads
		}
		per := func(n uint64) float64 { return float64(n) / float64(committed) }
		t.Logf("%-7s per committed inst: %.3f loads, %.3f load visits (%.3f port, %.3f LoadWait retries), %.3f memory pushes",
			gc.key, per(loads), per(sum.loadVisits), per(sum.portRetries), per(sum.waitRetries), per(sum.memPushes))
	}
}
