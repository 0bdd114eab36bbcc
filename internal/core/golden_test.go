package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pok/internal/workload"
)

// Golden fixtures: the timing reference. They pin absolute values, as
// recorded when the original full-window scan scheduler was still in
// the tree and agreed with the event scheduler on every one of them:
// the Result of every workload under the full-width, simple-pipelined
// and bit-sliced machines at 20k instructions; the Result of every
// workload under x2, x4 and simple-x4, and of li/mcf/gcc under five
// corner machines, at 100k (equiv_test.go); the Result of each
// scheduling edge-case snippet (schedule_edge_test.go); and the event
// stream of six recorded runs (telemetry_test.go). A missing fixture
// fails. Regenerate (only for an intended timing change) with:
//
//	go test ./internal/core -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.json from the current simulator")

const goldenInsts = 20_000

// goldenConfigs are the machines pinned by the fixtures, keyed by the
// short name used in the fixture file names.
func goldenConfigs() []struct {
	key string
	cfg Config
} {
	return []struct {
		key string
		cfg Config
	}{
		{"base", BaseConfig()},
		{"simple4", SimplePipelined(4)},
		{"slice2", BitSliced(2)},
		{"slice4", BitSliced(4)},
	}
}

// checkGolden compares got, field by field, with the fixture
// testdata/golden/<name>.json, or writes the fixture under
// -update-golden.
func checkGolden[T any](t *testing.T, name string, got T) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing (regenerate with -update-golden): %v", err)
	}
	var want T
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s = %v, golden %v", path, gv.Type().Field(i).Name, g, w)
		}
	}
}

// warmRun runs one workload on a fresh program: fast-forwarded past
// initialisation, then insts committed instructions.
func warmRun(t *testing.T, w *workload.Workload, cfg Config, insts uint64) Result {
	t.Helper()
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunWarm(prog, cfg, w.FastForward, insts)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return *r
}

func TestGoldenResults(t *testing.T) {
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, gc := range goldenConfigs() {
			gc := gc
			t.Run(bench+"/"+gc.key, func(t *testing.T) {
				t.Parallel()
				checkGolden(t, fmt.Sprintf("%s_%s", bench, gc.key), warmRun(t, w, gc.cfg, goldenInsts))
			})
		}
	}
}
