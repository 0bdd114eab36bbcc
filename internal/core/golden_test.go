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

// Golden Result fixtures. The legacy-vs-event differential tests share
// depsAvail and srcAvail between both schedulers, so a drift in those
// helpers moves both halves together and passes unnoticed. These
// fixtures pin the absolute Result of every workload under the
// full-width, simple-pipelined and bit-sliced machines to the values
// recorded when the fixtures were generated. Regenerate (only for an
// intended timing change) with:
//
//	go test ./internal/core -run TestGoldenResults -update-golden

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

func TestGoldenResults(t *testing.T) {
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, gc := range goldenConfigs() {
			cfg := gc.cfg
			path := filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s.json", bench, gc.key))
			t.Run(bench+"/"+gc.key, func(t *testing.T) {
				t.Parallel()
				prog, err := w.Program(w.DefaultScale)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunWarm(prog, cfg, w.FastForward, goldenInsts)
				if err != nil {
					t.Fatal(err)
				}
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
				var want Result
				if err := json.Unmarshal(b, &want); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				gv, wv := reflect.ValueOf(*got), reflect.ValueOf(want)
				for i := 0; i < gv.NumField(); i++ {
					name := gv.Type().Field(i).Name
					if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
						t.Errorf("%s: %s = %v, golden %v", path, name, g, w)
					}
				}
			})
		}
	}
}
