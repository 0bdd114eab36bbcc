package main

import (
	"sort"
	"time"

	"pok/internal/core"
)

// metric is one reported number's name and unit, as BENCHMARK.json
// lists them.
type metric struct{ name, unit string }

// endToEnd is what an untraced run prints.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"committed_minst_per_s", "Minst/s"},
	{"covered_minst_per_s", "Minst/s"},
	{"runs_per_s", "1/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
	{"sim_ipc", "inst/cycle"},
}

// modelled are the machine counters read from core.Result, kept per
// Figure 11 end point.
var modelled = []metric{
	{"bpred.mispredict_rate", "fraction"},
	{"bpred.early_resolved_frac", "fraction"},
	{"cache.l1d_miss_rate", "fraction"},
	{"cache.l1i_miss_rate", "fraction"},
	{"cache.way_mispredict_rate", "fraction"},
	{"lsq.early_release_frac", "fraction"},
	{"lsq.forward_frac", "fraction"},
	{"core.replays_per_kinst", "1/kinst"},
	{"core.stall_cpi.mispredict", "cycles/inst"},
	{"core.stall_cpi.icache", "cycles/inst"},
	{"core.stall_cpi.window", "cycles/inst"},
	{"core.stall_cpi.lsq", "cycles/inst"},
	{"core.stall_cpi.iq", "cycles/inst"},
}

// perLayer is what a traced run prints.
func perLayer() []metric {
	ms := []metric{
		{"workload.source_ms", "ms"},
		{"asm.assemble_ms", "ms"},
		{"asm.lines_per_s", "lines/s"},
		{"gen.new_ms", "ms"},
		{"core.newsim_ms", "ms"},
		{"core.newsim_alloc_mb", "MB"},
		{"emu.fastforward_ms", "ms"},
		{"emu.fastforward_minst_per_s", "Minst/s"},
	}
	for _, m := range figure11() {
		ms = append(ms,
			metric{"core.run_ns_per_inst." + m.key, "ns/inst"},
			metric{"core.run_ns_per_cycle." + m.key, "ns/cycle"})
	}
	ms = append(ms,
		metric{"core.run_alloc_bytes_per_inst", "B/inst"},
		metric{"core.sampled_ns_per_covered_inst", "ns/inst"},
		metric{"core.sampled_alloc_bytes_per_inst", "B/inst"},
		metric{"core.sampled_detail_frac", "fraction"},
		metric{"check.runchecked_ns_per_inst", "ns/inst"},
		metric{"check.runchecked_alloc_mb_per_run", "MB"},
		metric{"check.ok_frac", "fraction"},
		metric{"telemetry.events_per_inst", "events/inst"},
		metric{"telemetry.dropped_events", "count"},
		metric{"runtime.gc_cpu_frac", "fraction"},
		metric{"runtime.alloc_bytes_per_inst", "B/inst"},
		metric{"trace.overhead_frac", "fraction"},
	)
	for _, m := range figure11() {
		for _, c := range modelled {
			ms = append(ms, metric{c.name + "." + m.key, c.unit})
		}
	}
	return ms
}

// div returns a/b, or 0 when b is 0: a layer a workload never calls
// reports 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the untraced metrics. setup is the median
// set-up time.
func endToEndValues(p *pass, setup time.Duration) map[string]float64 {
	t := &p.side[0]
	runMs := make([]float64, len(t.times))
	for i, d := range t.times {
		runMs[i] = ms(d)
	}
	tail, _, _, _ := blockTail(runMs, p.size)
	var peaks []float64
	for _, r := range t.rounds {
		peaks = append(peaks, r.peakMB)
	}
	work, cpu := roundWork(t, p.size, p.repeats)
	sec := cpu.Seconds()
	return map[string]float64{
		"setup_s":               setup.Seconds(),
		"committed_minst_per_s": div(float64(work.committed), sec) / 1e6,
		"covered_minst_per_s":   div(float64(work.covered), sec) / 1e6,
		"runs_per_s":            div(float64(work.runs), sec),
		"run_ms_p50":            median(runMs),
		"run_ms_tail":           tail,
		"peak_rss_mb":           median(peaks),
		"sim_ipc":               div(float64(t.committed), float64(t.cycles)),
	}
}

// roundWork returns the work of one round of t and a robust time for
// it, so that a burst of host noise in one round does not move the
// rates. When rounds repeat, each run's time is the median over the
// rounds of that run, and the round time is their sum. Otherwise it is
// the round with the median rate.
func roundWork(t *tally, size int, repeats bool) (roundRate, time.Duration) {
	if len(t.rounds) == 0 {
		return roundRate{}, 0
	}
	if repeats {
		var sum float64
		for i := 0; i < size; i++ {
			var ts []float64
			for k := i; k < len(t.times); k += size {
				ts = append(ts, float64(t.times[k]))
			}
			sum += median(ts)
		}
		return t.rounds[0], time.Duration(sum)
	}
	rs := append([]roundRate(nil), t.rounds...)
	rate := func(r roundRate) float64 { return float64(r.runs) / r.cpu.Seconds() }
	sort.Slice(rs, func(a, b int) bool { return rate(rs[a]) < rate(rs[b]) })
	m := rs[len(rs)/2]
	return m, m.cpu
}

// perLayerValues computes the traced metrics from the spans and the
// traced rounds, with the GC and allocation figures of the untraced
// rounds.
func perLayerValues(p *pass, spans []span) map[string]float64 {
	plain, traced := &p.side[0], &p.side[1]
	ls := layers(spans)
	get := func(n string) layerStat {
		if l := ls[n]; l != nil {
			return *l
		}
		return layerStat{}
	}
	perCallMs := func(n string) float64 { l := get(n); return div(ms(l.Self), float64(l.Calls)) }
	v := map[string]float64{
		"workload.source_ms":          perCallMs("workload.source"),
		"asm.assemble_ms":             perCallMs("asm.assemble"),
		"asm.lines_per_s":             div(float64(get("asm.assemble").Count), get("asm.assemble").Self.Seconds()),
		"gen.new_ms":                  perCallMs("gen.new"),
		"core.newsim_ms":              perCallMs("core.newsim"),
		"core.newsim_alloc_mb":        div(float64(get("core.newsim").Alloc)/1e6, float64(get("core.newsim").Calls)),
		"emu.fastforward_ms":          perCallMs("emu.fastforward"),
		"emu.fastforward_minst_per_s": div(float64(get("emu.fastforward").Count), get("emu.fastforward").Self.Seconds()) / 1e6,
	}
	var runAlloc, runInsts float64
	for _, m := range figure11() {
		l := get("core.run." + m.key)
		v["core.run_ns_per_inst."+m.key] = div(float64(l.Self), float64(l.Count))
		var cycles float64
		if l.Calls > 0 {
			cycles = float64(traced.machineCycles[m.key])
		}
		v["core.run_ns_per_cycle."+m.key] = div(float64(l.Self), cycles)
		runAlloc += float64(l.Alloc)
		runInsts += float64(l.Count)
	}
	v["core.run_alloc_bytes_per_inst"] = div(runAlloc, runInsts)

	s := get("core.runsampled")
	v["core.sampled_ns_per_covered_inst"] = div(float64(s.Self), float64(s.Count))
	v["core.sampled_alloc_bytes_per_inst"] = div(float64(s.Alloc), float64(s.Count))
	v["core.sampled_detail_frac"] = 0
	if s.Calls > 0 {
		v["core.sampled_detail_frac"] = div(float64(traced.committed), float64(traced.covered))
	}

	c := get("check.runchecked")
	v["check.runchecked_ns_per_inst"] = div(float64(c.Self), float64(c.Count))
	v["check.runchecked_alloc_mb_per_run"] = div(float64(c.Alloc)/1e6, float64(c.Calls))
	v["check.ok_frac"] = div(float64(traced.okRuns), float64(c.Calls))
	v["telemetry.events_per_inst"] = div(float64(traced.events), float64(c.Count))
	v["telemetry.dropped_events"] = float64(traced.dropped)

	v["runtime.gc_cpu_frac"] = div(plain.gcCPU, plain.gcCPU+plain.userCPU)
	v["runtime.alloc_bytes_per_inst"] = div(float64(plain.alloc), float64(plain.covered))
	w0, t0 := roundWork(plain, p.size, p.repeats)
	w1, t1 := roundWork(traced, p.size, p.repeats)
	v["trace.overhead_frac"] = div(t1.Seconds()/float64(w1.runs), t0.Seconds()/float64(w0.runs)) - 1

	for _, m := range figure11() {
		for name, x := range p.perMachine[m.key].counters() {
			v[name+"."+m.key] = x
		}
	}
	return v
}

// machineSums adds up the modelled counters of one config's Results.
type machineSums struct {
	runs                       int
	insts                      uint64
	branches, mispredicts      uint64
	earlyResolved              uint64
	partialTag, wayMispredicts uint64
	loads, earlyRelease, fwds  uint64
	replays                    uint64
	l1dMiss, l1iMiss           float64 // summed per-run rates
	stMis, stIC, stWin, stLSQ  uint64
	stIQ                       uint64
}

func (s *machineSums) add(r *core.Result) {
	s.runs++
	s.insts += r.Insts
	s.branches += r.Branches
	s.mispredicts += r.Mispredicts
	s.earlyResolved += r.EarlyResolved
	s.partialTag += r.PartialTagAccess
	s.wayMispredicts += r.WayMispredicts
	s.loads += r.Loads
	s.earlyRelease += r.LoadsEarlyRelease
	s.fwds += r.StoreForwards
	s.replays += r.Replays
	s.l1dMiss += r.L1DMissRate
	s.l1iMiss += r.L1IMissRate
	s.stMis += r.StallMispredict
	s.stIC += r.StallICache
	s.stWin += r.StallWindowFull
	s.stLSQ += r.StallLSQFull
	s.stIQ += r.StallIQFull
}

// counters returns the modelled metrics, keyed by their names without
// the config suffix. Every one is 0 for a config the workload never ran.
func (s *machineSums) counters() map[string]float64 {
	if s == nil {
		s = &machineSums{}
	}
	f := func(x uint64) float64 { return float64(x) }
	insts := f(s.insts)
	return map[string]float64{
		"bpred.mispredict_rate":     div(f(s.mispredicts), f(s.branches)),
		"bpred.early_resolved_frac": div(f(s.earlyResolved), f(s.mispredicts)),
		"cache.l1d_miss_rate":       div(s.l1dMiss, float64(s.runs)),
		"cache.l1i_miss_rate":       div(s.l1iMiss, float64(s.runs)),
		"cache.way_mispredict_rate": div(f(s.wayMispredicts), f(s.partialTag)),
		"lsq.early_release_frac":    div(f(s.earlyRelease), f(s.loads)),
		"lsq.forward_frac":          div(f(s.fwds), f(s.loads)),
		"core.replays_per_kinst":    div(1000*f(s.replays), insts),
		"core.stall_cpi.mispredict": div(f(s.stMis), insts),
		"core.stall_cpi.icache":     div(f(s.stIC), insts),
		"core.stall_cpi.window":     div(f(s.stWin), insts),
		"core.stall_cpi.lsq":        div(f(s.stLSQ), insts),
		"core.stall_cpi.iq":         div(f(s.stIQ), insts),
	}
}
