package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"pok/internal/asm"
	"pok/internal/check"
	"pok/internal/core"
	"pok/internal/emu"
	"pok/internal/gen"
	"pok/internal/telemetry"
	"pok/internal/workload"
)

// sizes fixes how much work one run does. Tests shrink it.
type sizes struct {
	budget     uint64 // timing-x4: committed instructions per run
	maxOffset  uint64 // extra start offset past a kernel's FastForward is in [0, maxOffset)
	sampleLen  uint64 // sampled-x4: detailed instructions per window
	skipLen    uint64 // sampled-x4: warmed instructions after each window
	nSamples   int    // sampled-x4: windows per run
	roundProgs int    // checked-gen: programs per round
}

var defaultSizes = sizes{
	budget:     100_000,
	maxOffset:  50_000,
	sampleLen:  2_000,
	skipLen:    50_000,
	nSamples:   10,
	roundProgs: 32,
}

// machine is one Figure 11 end point, keyed by the short name the
// per-config metrics use.
type machine struct {
	key string
	cfg core.Config
}

func figure11() []machine {
	return []machine{
		{"base", core.BaseConfig()},
		{"simple4", core.SimplePipelined(4)},
		{"slice4", core.BitSliced(4)},
	}
}

// outcome is what one run produced.
type outcome struct {
	committed uint64 // detailed instructions committed
	covered   uint64 // program instructions advanced: fast-forward, warming and detailed
	cycles    int64
	machine   string       // config key, for the per-config counters
	res       *core.Result // timing-x4 and sampled-x4
	events    uint64       // checked-gen, traced only: telemetry events recorded
	dropped   uint64       // checked-gen, traced only: events that fell off the ring
	ok        bool         // checked-gen: the report was OK
	record    []byte       // canonical form of every simulated field, for the digest
	err       error
}

// job is one workload's prepared inputs. run performs the run with
// global index k, recording spans when tr is not nil; when repeats is true, run k does exactly what run
// k mod size does, so every round must reproduce round 0.
type job interface {
	size() int
	repeats() bool
	run(k int, tr *tracer) outcome
}

// kernel is one assembled suite program and where its runs start.
type kernel struct {
	name   string
	prog   *emu.Program
	start  uint64 // FastForward plus the seed's offset
	offset uint64
}

// loadSuite assembles every kernel of the suite and picks each one's
// start offset from seed. The simulator sees only the assembled
// programs and the start points.
func loadSuite(seed uint64, sz sizes, tr *tracer) ([]kernel, error) {
	if err := workload.RegistrationError(); err != nil {
		return nil, err
	}
	names := workload.Names()
	offs := offsets(seed, len(names), sz.maxOffset)
	var ks []kernel
	for i, name := range names {
		w, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("workload.source")
		src := w.Source(w.DefaultScale)
		tr.end(sp, 0)
		sp = tr.begin("asm.assemble")
		prog, err := asm.Assemble(src)
		tr.end(sp, lines(src))
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", name, err)
		}
		ks = append(ks, kernel{name: name, prog: prog, start: w.FastForward + offs[i], offset: offs[i]})
	}
	return ks, nil
}

// offsets gives each of n kernels an extra start offset in [0, max).
// The range is cut into n equal slots; the seed deals the slots out to
// the kernels and places each offset inside its slot. So every seed
// starts the kernels in different places, while the total
// fast-forward work, and with it the run time, barely depends on it.
func offsets(seed uint64, n int, max uint64) []uint64 {
	rng := seed
	next := func() uint64 { // splitmix64
		rng += 0x9e3779b97f4a7c15
		x := rng
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	slot := make([]uint64, n)
	for i := range slot {
		slot[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := next() % uint64(i+1)
		slot[i], slot[j] = slot[j], slot[i]
	}
	w := max / uint64(n)
	out := make([]uint64, n)
	for i, s := range slot {
		out[i] = s * w
		if w > 0 {
			out[i] += next() % w
		}
	}
	return out
}

func lines(src string) uint64 { return uint64(strings.Count(src, "\n") + 1) }

// startAt advances sim n instructions functionally before timing
// begins. Sim.FastForward(0) is not a no-op: emu.Run reads a zero
// budget as unbounded, so it would run the whole program to exit.
func startAt(sim *core.Sim, n uint64) error {
	if n == 0 {
		return nil
	}
	return sim.FastForward(n)
}

// timingJob is timing-x4: every kernel under every Figure 11 end point,
// NewSim -> FastForward -> Run with no observers.
type timingJob struct {
	ks     []kernel
	ms     []machine
	budget uint64
}

func (j *timingJob) size() int     { return len(j.ks) * len(j.ms) }
func (j *timingJob) repeats() bool { return true }

func (j *timingJob) run(k int, tr *tracer) outcome {
	i := k % j.size()
	kn, m := j.ks[i/len(j.ms)], j.ms[i%len(j.ms)]
	o := outcome{machine: m.key}
	sp := tr.begin("core.newsim")
	sim, err := core.NewSim(kn.prog, m.cfg, j.budget)
	tr.end(sp, 0)
	if err != nil {
		o.err = err
		return o
	}
	if kn.start > 0 {
		sp = tr.begin("emu.fastforward")
		err = startAt(sim, kn.start)
		tr.end(sp, kn.start)
		if err != nil {
			o.err = err
			return o
		}
	}
	sp = tr.begin("core.run." + m.key)
	res, err := sim.Run()
	if err != nil {
		tr.end(sp, 0)
		o.err = err
		return o
	}
	tr.end(sp, res.Insts)
	o.res, o.committed, o.cycles = res, res.Insts, res.Cycles
	o.covered = kn.start + res.Insts
	if res.Insts != j.budget {
		o.err = fmt.Errorf("%s/%s committed %d of %d instructions", kn.name, m.key, res.Insts, j.budget)
	}
	o.record, o.err = record(kn.name, kn.offset, res, o.err)
	return o
}

// sampledJob is sampled-x4: core.RunSampled on every kernel under the
// bit-sliced x4 machine, detailed windows a few percent of the run.
type sampledJob struct {
	ks                 []kernel
	m                  machine
	sampleLen, skipLen uint64
	nSamples           int
}

func (j *sampledJob) size() int     { return len(j.ks) }
func (j *sampledJob) repeats() bool { return true }

func (j *sampledJob) run(k int, tr *tracer) outcome {
	kn := j.ks[k%len(j.ks)]
	o := outcome{machine: j.m.key}
	// RunSampled warms functionally for the warm-up and after every
	// window, so it covers exactly this many instructions. The suite's
	// programs run far longer; an exit before the last window would show
	// as a short detailed count below.
	covered := kn.start + uint64(j.nSamples)*(j.sampleLen+j.skipLen)
	sp := tr.begin("core.runsampled")
	res, err := core.RunSampled(kn.prog, j.m.cfg, kn.start, j.sampleLen, j.skipLen, j.nSamples)
	tr.end(sp, covered)
	if err != nil {
		o.err = err
		return o
	}
	o.res, o.committed, o.cycles, o.covered = res, res.Insts, res.Cycles, covered
	if want := uint64(j.nSamples) * j.sampleLen; res.Insts != want {
		o.err = fmt.Errorf("%s sampled %d of %d detailed instructions", kn.name, res.Insts, want)
	}
	o.record, o.err = record(kn.name, kn.offset, res, o.err)
	return o
}

// checkedJob is checked-gen: gen.New -> asm.Assemble -> check.RunChecked
// on a fresh generated program every run.
type checkedJob struct {
	seed  uint64
	m     machine
	round int
}

func (j *checkedJob) size() int     { return j.round }
func (j *checkedJob) repeats() bool { return false }

func (j *checkedJob) run(k int, tr *tracer) outcome {
	o := outcome{machine: j.m.key}
	sp := tr.begin("gen.new")
	src := gen.New(gen.Options{Seed: gen.ProgramSeed(j.seed, k)}).Source()
	tr.end(sp, 0)
	sp = tr.begin("asm.assemble")
	prog, err := asm.Assemble(src)
	tr.end(sp, lines(src))
	if err != nil {
		o.err = err
		return o
	}
	// The recorder is the one RunChecked would attach itself; bringing
	// it in lets the traced run read its counters without asking
	// RunChecked to copy the event ring out (KeepTelemetry).
	sp = tr.begin("check.runchecked")
	cfg := j.m.cfg
	rec := cfg.NewRecorder(0)
	cfg.Collector = rec
	rep, err := check.RunChecked(prog, cfg, check.Options{})
	if err != nil {
		tr.end(sp, 0)
		o.err = err
		return o
	}
	tr.end(sp, rep.Insts)
	o.committed, o.covered, o.cycles, o.ok = rep.Insts, rep.Insts, rep.Cycles, rep.OK
	if tr != nil {
		o.events, o.dropped = eventCount(rec.Summary()), rec.Dropped()
	}
	if !rep.OK {
		o.err = fmt.Errorf("program %d: %s: %s", k, rep.FailKind, rep.Error)
	}
	o.record, o.err = record(fmt.Sprintf("gen-%d", k), 0, rep, o.err)
	return o
}

func eventCount(s *telemetry.Summary) uint64 {
	var n uint64
	for _, c := range s.Events {
		n += c
	}
	return n
}

// record renders every exported field of a Result or Report, labelled
// with the run's input. Both marshal deterministically: encoding/json
// keeps struct field order and sorts map keys. A marshal error joins
// the run's error.
func record(name string, off uint64, v any, runErr error) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, errors.Join(runErr, fmt.Errorf("%s: digest: %w", name, err))
	}
	return append([]byte(fmt.Sprintf("%s@%d ", name, off)), b...), runErr
}
