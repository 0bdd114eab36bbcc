package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of
// the call. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`    // run id; -1 during set-up
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  uint64 `json:"count"`       // work done: instructions, or source lines for asm
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated inside the span, children included
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer records nothing, so the untraced run calls the same code.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int
	alloc []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		run:   -1,
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span named name under the innermost open span and
// returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent, Alloc: t.allocated()})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes span id, which must be the innermost open span, and
// records count units of work for it.
func (t *tracer) end(id int, count uint64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Alloc = t.allocated() - s.Alloc
	s.Count = count
	t.open = t.open[:len(t.open)-1]
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Calls int
	Total time.Duration // summed span durations
	Self  time.Duration // Total minus the time child spans cover
	Count uint64
	Alloc uint64
}

// selfTime returns each span's duration minus the part of its interval
// that its child spans cover. Overlapping children count once.
func selfTime(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layers folds spans by name.
func layers(spans []span) map[string]*layerStat {
	self := selfTime(spans)
	out := map[string]*layerStat{}
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStat{}
			out[s.Name] = l
		}
		l.Calls++
		l.Total += time.Duration(s.End - s.Start)
		l.Self += self[i]
		l.Count += s.Count
		l.Alloc += s.Alloc
	}
	return out
}

// printLayers writes the per-layer self-time table, largest first.
func printLayers(w *bufio.Writer, ls map[string]*layerStat) {
	names := make([]string, 0, len(ls))
	var all time.Duration
	for n, l := range ls {
		names = append(names, n)
		all += l.Self
	}
	sort.Slice(names, func(a, b int) bool {
		if ls[names[a]].Self != ls[names[b]].Self {
			return ls[names[a]].Self > ls[names[b]].Self
		}
		return names[a] < names[b]
	})
	fmt.Fprintf(w, "%-22s %8s %11s %11s %7s %12s\n", "layer", "calls", "total_ms", "self_ms", "self%", "alloc_MB")
	for _, n := range names {
		l := ls[n]
		fmt.Fprintf(w, "%-22s %8d %11.1f %11.1f %6.1f%% %12.1f\n", n, l.Calls,
			ms(l.Total), ms(l.Self), 100*l.Self.Seconds()/all.Seconds(), float64(l.Alloc)/1e6)
	}
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
