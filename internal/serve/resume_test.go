package serve

import (
	"bytes"
	"testing"
	"time"
)

// instCkptJob submits a 1-cell soak job with instruction-granular
// checkpointing armed.
func instCkptJob(t *testing.T, c *Coordinator, programs int) string {
	t.Helper()
	id, err := c.Submit(JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed:     41,
		Programs:     programs,
		Configs:      []string{"slice2"},
		CellPrograms: programs,
		InstCkpt:     500,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestResumeCursorThroughRequeue walks the instruction-granular cursor
// through the full lease lifecycle: heartbeat it up, reap the lease,
// and the next assignment must hand the identical cursor back down; a
// later program-boundary heartbeat must invalidate it; a clean release
// must commit it; completion must clear it.
func TestResumeCursorThroughRequeue(t *testing.T) {
	c, now := testCoordinator(time.Second)
	instCkptJob(t, c, 4)

	a := c.Lease("w1", "")
	if a == nil || a.Start != 0 {
		t.Fatalf("first lease: %+v", a)
	}
	if a.Resume != nil {
		t.Fatalf("fresh cell handed a resume cursor: %+v", a.Resume)
	}

	// w1 finishes program 0, then drains a snapshot inside program 1,
	// then dies (lease expires).
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 1, Runs: 1})
	rc := &ResumeCursor{Program: 1, Cell: 1, Snap: []byte("snapshot-bytes")}
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 1, Runs: 1, Resume: rc})
	*now = now.Add(2 * time.Second)

	a2 := c.Lease("w2", "")
	if a2 == nil || a2.Start != 1 {
		t.Fatalf("requeued lease: %+v", a2)
	}
	if a2.Resume == nil || a2.Resume.Program != 1 || a2.Resume.Cell != 1 ||
		!bytes.Equal(a2.Resume.Snap, rc.Snap) {
		t.Fatalf("requeued assignment lost the mid-program cursor: %+v", a2.Resume)
	}

	// w2 dies without a single heartbeat: the committed cursor must
	// survive a second requeue untouched.
	*now = now.Add(2 * time.Second)
	a3 := c.Lease("w3", "")
	if a3 == nil || a3.Start != 1 || a3.Resume == nil ||
		!bytes.Equal(a3.Resume.Snap, rc.Snap) {
		t.Fatalf("silent lease death dropped the cursor: %+v", a3)
	}

	// w3 passes the program boundary (heartbeat without Resume): the
	// mid-program cursor is now stale and must be invalidated.
	c.Heartbeat(Heartbeat{Lease: a3.Lease, Worker: "w3", Cursor: 2, Runs: 3})
	*now = now.Add(2 * time.Second)
	a4 := c.Lease("w4", "")
	if a4 == nil || a4.Start != 2 {
		t.Fatalf("post-boundary lease: %+v", a4)
	}
	if a4.Resume != nil {
		t.Fatalf("stale cursor survived a program-boundary heartbeat: %+v", a4.Resume)
	}

	// w4 drains cleanly mid-program: Release carries the cursor, and
	// the next lease resumes from it without a retry strike.
	rc2 := &ResumeCursor{Program: 2, Cell: 0, Snap: []byte("release-snap")}
	c.Release(ReleaseRequest{Lease: a4.Lease, Worker: "w4",
		Cursor: 2, Runs: 3, Resume: rc2})
	a5 := c.Lease("w5", "")
	if a5 == nil || a5.Start != 2 || a5.Resume == nil ||
		!bytes.Equal(a5.Resume.Snap, rc2.Snap) {
		t.Fatalf("released cursor not handed back: %+v", a5)
	}

	// Completion retires the cell; the cursor must not leak anywhere.
	if err := c.Complete(CellResult{Lease: a5.Lease, Worker: "w5",
		Cursor: 4, Runs: 7}); err != nil {
		t.Fatal(err)
	}
	cl := c.jobs[c.order[0]].cells[0]
	if cl.resume != nil || cl.liveResume != nil {
		t.Fatalf("completed cell kept a resume cursor: %+v %+v", cl.resume, cl.liveResume)
	}
}

// TestResumeCursorStaleProgramIgnored: a heartbeat whose Resume points
// at a program behind its own cursor (worker bug or reordered
// delivery) must not be committed.
func TestResumeCursorStaleProgramIgnored(t *testing.T) {
	c, now := testCoordinator(time.Second)
	instCkptJob(t, c, 4)
	a := c.Lease("w1", "")
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 2, Runs: 2,
		Resume: &ResumeCursor{Program: 1, Cell: 0, Snap: []byte("old")}})
	*now = now.Add(2 * time.Second)
	a2 := c.Lease("w2", "")
	if a2 == nil || a2.Start != 2 {
		t.Fatalf("requeued lease: %+v", a2)
	}
	if a2.Resume != nil {
		t.Fatalf("stale-program cursor was handed back: %+v", a2.Resume)
	}
}

// TestSoakCkptErrsOnStatus: the worker's checkpoint-failure counter
// rides the heartbeat stats through to /api/status.
func TestSoakCkptErrsOnStatus(t *testing.T) {
	c, _ := testCoordinator(time.Second)
	instCkptJob(t, c, 4)
	a := c.Lease("w1", "")
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 1, Runs: 1,
		Stats: &WorkerStats{SoakCkptErrs: 3}})
	st := c.Status()
	for _, w := range st.Workers {
		if w.Name == "w1" {
			if w.Stats == nil || w.Stats.SoakCkptErrs != 3 {
				t.Fatalf("worker stats lost SoakCkptErrs: %+v", w.Stats)
			}
			return
		}
	}
	t.Fatal("worker w1 not on status")
}
