package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "run", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: [10,50) counts once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // only [90,100) lies inside run
		{Name: "d", Parent: 1, Start: 12, End: 18},
	}
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i, got := range selfTime(spans) {
		if got != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	ls := layers(spans)
	if l := ls["run"]; l.Calls != 1 || l.Total != 100 || l.Self != 50 {
		t.Errorf("run layer = %+v", *l)
	}
}

var allocSink []byte

func TestTracerNestsSpans(t *testing.T) {
	var off *tracer
	if id := off.begin("x"); id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1, 1) // must not panic

	tr := newTracer()
	tr.run = 7
	root := tr.begin("run")
	child := tr.begin("core.newsim")
	allocSink = make([]byte, 1<<20)
	tr.end(child, 3)
	tr.end(root, 5)
	if len(tr.spans) != 2 || len(tr.open) != 0 {
		t.Fatalf("spans %d open %d", len(tr.spans), len(tr.open))
	}
	c, r := tr.spans[child], tr.spans[root]
	if c.Parent != root || r.Parent != -1 || c.Run != 7 || c.Count != 3 || r.Count != 5 {
		t.Errorf("spans = %+v", tr.spans)
	}
	if c.Start < r.Start || c.End > r.End || c.End < c.Start {
		t.Errorf("child [%d,%d] not inside root [%d,%d]", c.Start, c.End, r.Start, r.End)
	}
	if c.Alloc < 1<<20 || r.Alloc < c.Alloc {
		t.Errorf("alloc child %d root %d, want >= 1 MiB and root >= child", c.Alloc, r.Alloc)
	}
}
