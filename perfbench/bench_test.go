package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pok/internal/asm"
	"pok/internal/core"
	"pok/internal/gen"
)

// tiny keeps every workload to a fraction of a second.
var tiny = sizes{budget: 2000, maxOffset: 20_000, sampleLen: 500, skipLen: 2000, nSamples: 3, roundProgs: 4}

// TestMain lets the set-up probes that a --trace 0 run starts re-enter
// this test binary as the benchmark itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runJSON runs one workload and decodes the result line.
func runJSON(t *testing.T, name string, seed uint64, trace int) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, name, seed, 1, trace, false, tiny); err != nil {
		t.Fatalf("%s trace %d: %v\n%s", name, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s trace %d: correct %v failed %d of %d\n%s", name, trace, r.Correct, r.Failed, r.Attempted, out.String())
	}
	return r, out.String()
}

type benchFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	f := readBenchFile(t)
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	e2e, layer := declared(f.EndToEnd), declared(f.PerLayer)
	if len(f.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(f.Workloads), len(specs))
	}
	for _, w := range f.Workloads {
		if _, err := findSpec(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, sp := range specs {
		var digests [2]string
		for trace, want := range []map[string]string{e2e, layer} {
			r, out := runJSON(t, sp.name, 1, trace)
			digests[trace] = digestLine(out)
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %d: printed %d metrics, BENCHMARK.json declares %d", sp.name, trace, len(r.Metrics), len(want))
			}
			for name, v := range r.Metrics {
				if u, ok := want[name]; !ok || u != v.Unit {
					t.Errorf("%s trace %d: printed %s in %q; BENCHMARK.json has %q (declared %v)", sp.name, trace, name, v.Unit, u, ok)
				}
			}
		}
		// Half of a traced run's rounds are traced; the spans must not
		// change what is simulated.
		if digests[0] == "" || digests[0] != digests[1] {
			t.Errorf("%s: untraced %q, traced %q", sp.name, digests[0], digests[1])
		}
	}
}

func digestLine(out string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "digest ") {
			return l
		}
	}
	return ""
}

func TestSeedFixesDigest(t *testing.T) {
	for _, sp := range specs {
		digest := func(seed uint64) uint64 {
			j, err := sp.prepare(seed, tiny, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := measure(j, 2*j.size(), nil)
			if p.failed != 0 {
				t.Fatalf("%s seed %d: %v", sp.name, seed, p.errs)
			}
			return p.digest
		}
		a, b, c := digest(5), digest(5), digest(6)
		if a != b {
			t.Errorf("%s: seed 5 gave digests %x and %x", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same digest %x", sp.name, a)
		}
	}
}

func TestSeedsPickDifferentWindows(t *testing.T) {
	const n, max = 11, 500_000
	a, b := offsets(1, n, max), offsets(2, n, max)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == n {
		t.Errorf("seeds 1 and 2 start every kernel at the same offset %v", a)
	}
	// Each seed deals one offset into each of the n slots.
	for _, seed := range []uint64{1, 2, 99} {
		seen := make([]bool, n)
		for _, o := range offsets(seed, n, max) {
			s := o / (max / n)
			if s >= n || seen[s] {
				t.Fatalf("seed %d: offsets %v do not fill one per slot", seed, offsets(seed, n, max))
			}
			seen[s] = true
		}
	}
}

// Sim.FastForward(0) runs the program to exit, because emu.Run reads a
// zero budget as unbounded; startAt must skip the call.
func TestZeroFastForwardIsSkipped(t *testing.T) {
	prog, err := asm.Assemble(gen.New(gen.Options{Seed: 1}).Source())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 300
	committed := func(ff func(*core.Sim) error) uint64 {
		sim, err := core.NewSim(prog, core.BitSliced(4), budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := ff(sim); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Insts
	}
	if got := committed(func(s *core.Sim) error { return startAt(s, 0) }); got != budget {
		t.Errorf("startAt(0): committed %d, want %d", got, budget)
	}
	if got := committed(func(s *core.Sim) error { return s.FastForward(0) }); got == budget {
		t.Errorf("Sim.FastForward(0) now leaves the program at its start; startAt's guard can go")
	}
}
