package core

import (
	"fmt"
	"testing"

	"pok/internal/workload"
)

// The event-driven scheduler (sched_event.go, memory.go) replaced a
// full-window scan that rescanned every entry every cycle. The two ran
// side by side until each cell below had a golden fixture both agreed
// on, counter for counter; these tests now hold the event scheduler to
// those fixtures (see golden_test.go).

// diffInsts is the budget of the sweeps below and their fixtures.
const diffInsts = 100_000

// TestEventSchedulerMatchesLegacy sweeps every Table 1 workload under the
// slice-by-2 and slice-by-4 bit-sliced machines and the simple-pipelined
// slice-by-4 machine at 100k instructions. The last one turns partial
// bypass and out-of-order slices off, the two config bits the wake
// masks and chain gating branch on.
func TestEventSchedulerMatchesLegacy(t *testing.T) {
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, c := range []struct {
			key string
			cfg Config
		}{
			{"x2", BitSliced(2)},
			{"x4", BitSliced(4)},
			{"simple-x4", SimplePipelined(4)},
		} {
			t.Run(bench+"/"+c.key, func(t *testing.T) {
				t.Parallel()
				checkGolden(t, fmt.Sprintf("%s_%s_100k", bench, c.key), warmRun(t, w, c.cfg, diffInsts))
			})
		}
	}
}

// TestEventSchedulerMatchesLegacyConfigs stresses the corners the
// benchmark sweep does not reach: full-width baseline, simple pipelining,
// and a kitchen-sink machine with every second-order feature enabled
// (wrong-path execution, narrow-width, serial multiplier, sum-addressed
// decoder, DTLB, bounded issue queues).
func TestEventSchedulerMatchesLegacyConfigs(t *testing.T) {
	kitchen := kitchenSinkConfig()

	wp2 := BitSliced(2)
	wp2.Name = "bit-slice-x2+wp"
	wp2.WrongPath = true

	configs := []Config{BaseConfig(), SimplePipelined(2), SimplePipelined(4), wp2, kitchen}
	for _, bench := range []string{"li", "mcf", "gcc"} {
		w := workload.MustGet(bench)
		for _, cfg := range configs {
			name := fmt.Sprintf("%s/%s", bench, cfg.Name)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				checkGolden(t, fmt.Sprintf("%s_%s_100k", bench, cfg.Name), warmRun(t, w, cfg, diffInsts))
			})
		}
	}
}

// kitchenSinkConfig is the slice-by-4 machine with every second-order
// feature enabled: wrong-path execution, narrow-width, serial
// multiplier, sum-addressed decoder, DTLB and bounded issue queues.
func kitchenSinkConfig() Config {
	kitchen := BitSliced(4)
	kitchen.Name = "kitchen-sink"
	kitchen.WrongPath = true
	kitchen.NarrowWidth = true
	kitchen.SerialMul = true
	kitchen.SumAddressed = true
	kitchen.UseDTLB = true
	kitchen.IssueQueueSize = 16
	return kitchen
}
