// Command perfbench measures the simulator on three fixed workloads
// and checks every simulated result it produces. See README.md.
//
//	perfbench --workload timing-x4 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones. With --trace 1 every other round records a
// span around every layer call, and the metrics are the per-layer ones.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spec describes one workload. roundSeconds is how long one round takes
// on the reference host (2-vCPU Xeon, sequential); the number of rounds
// in a run is --seconds divided by it, so every run of a given
// --seconds does the same work on any host and any revision.
type spec struct {
	name         string
	roundSeconds float64
	prepare      func(seed uint64, sz sizes, tr *tracer) (job, error)
}

var specs = []spec{
	{"timing-x4", 4.2, func(seed uint64, sz sizes, tr *tracer) (job, error) {
		ks, err := loadSuite(seed, sz, tr)
		if err != nil {
			return nil, err
		}
		return &timingJob{ks: ks, ms: figure11(), budget: sz.budget}, nil
	}},
	{"sampled-x4", 1.9, func(seed uint64, sz sizes, tr *tracer) (job, error) {
		ks, err := loadSuite(seed, sz, tr)
		if err != nil {
			return nil, err
		}
		return &sampledJob{ks: ks, m: figure11()[2], sampleLen: sz.sampleLen,
			skipLen: sz.skipLen, nSamples: sz.nSamples}, nil
	}},
	{"checked-gen", 0.55, func(seed uint64, sz sizes, tr *tracer) (job, error) {
		return &checkedJob{seed: seed, m: figure11()[2], round: sz.roundProgs}, nil
	}},
}

func findSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// setupProbes is how many times set-up is timed; setup_s is the median.
const setupProbes = 21

func main() {
	var (
		name    = flag.String("workload", "", "workload: timing-x4, sampled-x4 or checked-gen")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "run length, in seconds of work on the reference host")
		trace   = flag.Int("trace", 0, "1 = trace every other round and print per-layer metrics")
		probe   = flag.Bool("setup-probe", false, "set up the workload, print ready and exit (used to time set-up)")
	)
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace, *probe, defaultSizes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed uint64, seconds, trace int, probe bool, sz sizes) error {
	sp, err := findSpec(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if probe {
		if _, err := sp.prepare(seed, sz, nil); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stdout, "ready")
		return err
	}

	var tr *tracer
	if trace == 1 {
		tr = newTracer()
	}
	j, err := sp.prepare(seed, sz, tr)
	if err != nil {
		return err
	}
	rounds := int(math.Round(float64(seconds) / sp.roundSeconds))
	rounds = max(rounds, 2, (2*minBeyond+j.size()-1)/j.size()) // a repeat of round 0, and enough runs for a tail
	runs := rounds * j.size()

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "perfbench %s seed %d: %d runs (%d rounds of %d), one client, closed loop\n",
		sp.name, seed, runs, rounds, j.size())
	fmt.Fprintln(w, "model: unvalidated against real hardware; sim_ipc is modelled, not an accuracy figure")

	if cpuTime() == 0 {
		return errors.New("getrusage reports no CPU time")
	}
	p := measure(j, runs, tr)
	plain := &p.side[0]
	if plain.rounds[0].peakMB == 0 {
		return errors.New("no peak RSS: /proc/self/status has no VmHWM")
	}
	fmt.Fprintf(w, "digest %s seed %d: %016x over %d runs\n", sp.name, seed, p.digest, p.digestRuns)
	var vals map[string]float64
	var cat []metric
	if trace == 0 {
		setup, err := timeSetup(sp.name, seed)
		if err != nil {
			return err
		}
		ms := make([]float64, len(plain.times))
		for i, d := range plain.times {
			ms[i] = float64(d)
		}
		_, pct, bn, nb := blockTail(ms, p.size)
		fmt.Fprintf(w, "run_ms_tail is p%.1f of %d runs (median over %d blocks of %d runs); setup_s is the median of %d process starts\n",
			pct, bn*nb, nb, bn, setupProbes)
		vals, cat = endToEndValues(&p, setup), endToEnd
	} else {
		vals, cat = perLayerValues(&p, tr.spans), perLayer()
		fmt.Fprintf(w, "traced %d of %d rounds, %d spans; tracing overhead %+.1f%% of the untraced time per run\n",
			len(p.side[1].rounds), rounds, len(tr.spans), 100*vals["trace.overhead_frac"])
		printLayers(w, layers(tr.spans))
		path := fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", sp.name, seed)
		if err := writeSpans(path, tr.spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
	}
	for _, e := range p.errs {
		fmt.Fprintln(w, "FAIL:", e)
	}
	fmt.Fprintf(w, "failed %d of %d runs (failed_frac %g)\n", p.failed, runs, float64(p.failed)/float64(runs))
	return writeResult(w, p.failed == 0, runs, p.failed, cat, vals)
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(w io.Writer, correct bool, attempted, failed int, cat []metric, vals map[string]float64) error {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range cat {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", m.name)
		}
		r.Metrics[m.name] = metricValue{v, m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// pass is one measured sequence of runs.
type pass struct {
	size       int      // runs per round
	repeats    bool     // every round repeats round 0
	side       [2]tally // untraced rounds, traced rounds
	failed     int
	errs       []string // the first few failures
	digest     uint64
	digestRuns int
	perMachine map[string]*machineSums // round 0's Results, per config
}

// tally adds up the rounds of one side of a pass.
type tally struct {
	times         []time.Duration // CPU time per run, whole rounds in order
	rounds        []roundRate
	committed     uint64
	covered       uint64
	cycles        int64
	okRuns        int
	events        uint64
	dropped       uint64
	machineCycles map[string]int64
	gcCPU         float64 // GC CPU seconds
	userCPU       float64 // user-goroutine CPU seconds
	alloc         uint64  // heap bytes allocated
}

// roundRate is the work one round did and the CPU time it took.
type roundRate struct {
	committed, covered uint64
	runs               int
	cpu                time.Duration
	peakMB             float64 // peak resident memory during the round
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// measure performs runs runs of j, one at a time, and checks every
// result. With a tracer, odd rounds are traced and even rounds are not,
// so both sides see the same host conditions and, where rounds repeat,
// the same runs. The digest covers round 0 when rounds repeat, else
// every run.
func measure(j job, runs int, tr *tracer) pass {
	size := j.size()
	p := pass{size: size, repeats: j.repeats(), perMachine: map[string]*machineSums{}}
	for i := range p.side {
		p.side[i].machineCycles = map[string]int64{}
	}
	first := make([][]byte, size)
	h := fnv.New64a()
	fail := func(err error) {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
	}
	runtime.GC()
	for r := 0; r < runs/size; r++ {
		traced := tr != nil && r%2 == 1
		var rtr *tracer
		t := &p.side[0]
		if traced {
			rtr, t = tr, &p.side[1]
		}
		before := readRuntime()
		resetPeakRSS()
		var rr roundRate
		r0 := cpuTime()
		for k := r * size; k < (r+1)*size; k++ {
			root := -1
			if traced {
				tr.run = k
				root = tr.begin("run")
			}
			k0 := cpuTime()
			o := j.run(k, rtr)
			t.times = append(t.times, cpuTime()-k0)
			rtr.end(root, o.covered)

			rr.committed += o.committed
			rr.covered += o.covered
			t.committed += o.committed
			t.covered += o.covered
			t.cycles += o.cycles
			t.machineCycles[o.machine] += o.cycles
			t.events += o.events
			t.dropped += o.dropped
			if o.ok {
				t.okRuns++
			}
			if o.err != nil {
				fail(o.err)
			}
			switch {
			case !p.repeats || k < size:
				h.Write(o.record)
				p.digestRuns++
				first[k%size] = o.record
				if o.res != nil && k < size {
					ms := p.perMachine[o.machine]
					if ms == nil {
						ms = &machineSums{}
						p.perMachine[o.machine] = ms
					}
					ms.add(o.res)
				}
			case !bytes.Equal(o.record, first[k%size]):
				fail(fmt.Errorf("run %d differs from run %d of the same inputs", k, k%size))
			}
		}
		rr.cpu, rr.runs = cpuTime()-r0, size
		rr.peakMB = peakRSSMB()
		after := readRuntime()
		t.gcCPU += after[0].Value.Float64() - before[0].Value.Float64()
		t.userCPU += after[1].Value.Float64() - before[1].Value.Float64()
		t.alloc += after[2].Value.Uint64() - before[2].Value.Uint64()
		t.rounds = append(t.rounds, rr)
	}
	p.digest = h.Sum64()
	return p
}

// timeSetup starts this program setupProbes times in set-up-only mode
// and returns the median time from process start until it is ready for
// its first run.
func timeSetup(name string, seed uint64) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ts := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(exe, name, seed)
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ts = append(ts, float64(d))
	}
	return time.Duration(median(ts)), nil
}

func probeOnce(exe, name string, seed uint64) (time.Duration, error) {
	cmd := exec.Command(exe, "--setup-probe", "--workload", name, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" {
		return 0, errors.Join(fmt.Errorf("no ready line (got %q)", line), rerr, werr)
	}
	return d, werr
}

// cpuTime returns the CPU time this process has used so far: user and
// system, all threads, so GC work on other cores counts. Run times are
// CPU times because on a shared virtual machine wall time also holds
// the time the hypervisor gives to other guests, which no change to the
// simulator can affect and which varies from minute to minute.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size since the last
// resetPeakRSS, or 0 where /proc does not report it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak-RSS tracking (Linux 4.0+;
// "5" touches nothing else), so each round's peak is its own.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
