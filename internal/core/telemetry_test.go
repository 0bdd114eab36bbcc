package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"pok/internal/telemetry"
	"pok/internal/workload"
)

// The telemetry layer's correctness contract has two halves:
//
//  1. The structured event stream is part of the machine's observable
//     behavior, so it is pinned to golden fixtures recorded when the
//     original full-window scan scheduler emitted byte-identical JSONL
//     dumps (TestTelemetryGoldenAcrossSchedulers).
//  2. Telemetry is pure observation: attaching a Recorder must not
//     perturb timing, and running without one must leave Result
//     bit-identical (TestTelemetryNilCollectorIdentity).

// runRecorded runs one benchmark under cfg with a fresh Recorder
// attached and returns the result plus the recorder.
func runRecorded(t *testing.T, bench string, cfg Config, insts uint64) (*Result, *telemetry.Recorder) {
	t.Helper()
	w := workload.MustGet(bench)
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	rec := cfg.NewRecorder(0)
	cfg.Collector = rec
	r, err := RunWarm(prog, cfg, w.FastForward, insts)
	if err != nil {
		t.Fatal(err)
	}
	return r, rec
}

// dumpJSONL renders a recorder's event stream as its JSONL wire form.
func dumpJSONL(t *testing.T, rec *telemetry.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// eventStream is the golden fingerprint of a recorded event stream: its
// length, the ring's drop count, the count of each event kind and the
// FNV-64a hash of its JSONL dump.
type eventStream struct {
	Events  int               `json:"events"`
	Dropped uint64            `json:"dropped"`
	Kinds   map[string]uint64 `json:"kinds"`
	FNV64a  string            `json:"fnv64a"`
}

func streamOf(t *testing.T, rec *telemetry.Recorder) eventStream {
	t.Helper()
	events := rec.Events()
	kinds := make(map[string]uint64)
	for _, e := range events {
		kinds[e.Kind.String()]++
	}
	h := fnv.New64a()
	h.Write(dumpJSONL(t, rec))
	return eventStream{
		Events:  len(events),
		Dropped: rec.Dropped(),
		Kinds:   kinds,
		FNV64a:  fmt.Sprintf("%016x", h.Sum64()),
	}
}

// TestTelemetryGoldenAcrossSchedulers pins the full event streams of
// six small runs — the order of every issue, replay, memory access,
// resolution, commit and squash — to fixtures both schedulers produced
// byte for byte before the scan scheduler was retired: the strongest
// cycle-exactness statement the repo makes.
func TestTelemetryGoldenAcrossSchedulers(t *testing.T) {
	const insts = 20_000
	cases := []struct {
		bench string
		cfg   Config
	}{
		{"gzip", BitSliced(2)},
		{"mcf", BitSliced(4)},
		{"gcc", func() Config {
			c := BitSliced(4)
			c.WrongPath = true // squash + wrong-path fetch events
			c.UseDTLB = true
			return c
		}()},
		{"twolf", BaseConfig()},
		{"li", SimplePipelined(4)}, // atomic bypass, in-order slices
		{"ijpeg", func() Config {
			c := BitSliced(4)
			c.Name = "bit-slice-x4+narrow+serialmul"
			c.NarrowWidth = true // upper slices wake with slice 0
			c.SerialMul = true   // per-slice products of a full-width op
			return c
		}()},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%s", tc.bench, tc.cfg.Name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, rec := runRecorded(t, tc.bench, tc.cfg, insts)
			checkGolden(t, "events_"+strings.ReplaceAll(name, "/", "_"), streamOf(t, rec))
		})
	}
}

// TestTelemetryNilCollectorIdentity proves telemetry is observation
// only: the Result of an instrumented run equals the uninstrumented
// Result bit-for-bit once the Telemetry summary pointer is cleared.
func TestTelemetryNilCollectorIdentity(t *testing.T) {
	const insts = 20_000
	for _, slices := range []int{2, 4} {
		cfg := BitSliced(slices)
		w := workload.MustGet("gzip")
		prog, err := w.Program(w.DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := RunWarm(prog, cfg, w.FastForward, insts)
		if err != nil {
			t.Fatal(err)
		}
		recorded, rec := runRecorded(t, "gzip", cfg, insts)
		if recorded.Telemetry == nil {
			t.Fatalf("x%d: instrumented run did not fold a Summary into Result", slices)
		}
		clone := *recorded
		clone.Telemetry = nil
		if clone != *plain {
			t.Errorf("x%d: telemetry perturbed the run\nwith:\n%s\nwithout:\n%s",
				slices, recorded.Summary(), plain.Summary())
		}
		// Cross-check the summary against the run's own counters.
		sum := rec.Summary()
		if sum.CyclesSampled != uint64(plain.Cycles) {
			t.Errorf("x%d: sampled %d cycles, simulated %d", slices, sum.CyclesSampled, plain.Cycles)
		}
		if got := sum.Events[telemetry.EvCommit.String()]; got != plain.Insts {
			t.Errorf("x%d: %d commit events, %d committed insts", slices, got, plain.Insts)
		}
		if got := sum.Events[telemetry.EvReplay.String()]; got != plain.Replays {
			t.Errorf("x%d: %d replay events, %d replays", slices, got, plain.Replays)
		}
		if got := sum.ResolvesEarly; got != plain.EarlyResolved {
			t.Errorf("x%d: %d early-resolve events, %d early resolved", slices, got, plain.EarlyResolved)
		}
	}
}

// TestTelemetryJSONLRoundTrip pushes a real event stream through the
// JSONL encoder and decoder and requires an exact structural round
// trip.
func TestTelemetryJSONLRoundTrip(t *testing.T) {
	_, rec := runRecorded(t, "gzip", BitSliced(2), 5_000)
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip: %d events in, %d out", len(events), len(back))
	}
	for i := range events {
		if events[i] != back[i] {
			t.Fatalf("round trip: event %d: %+v != %+v", i, events[i], back[i])
		}
	}
}
