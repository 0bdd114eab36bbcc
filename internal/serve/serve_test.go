package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"pok/internal/check/inject"
	"pok/internal/gen"
	"pok/internal/soak"
)

// testCoordinator builds a coordinator with an injectable clock so
// lease-expiry tests advance time without sleeping.
func testCoordinator(ttl time.Duration) (*Coordinator, *time.Time) {
	c := NewCoordinator(ttl)
	now := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return now }
	return c, &now
}

func soakJob(t *testing.T, c *Coordinator, programs, cellPrograms int) string {
	t.Helper()
	id, err := c.Submit(JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed:     41,
		Programs:     programs,
		Configs:      []string{"slice2"},
		CellPrograms: cellPrograms,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func finding(program int) soak.Finding {
	return soak.Finding{
		Program: program, Seed: uint64(program) + 100,
		Config: "slice2", Kind: "divergence", Field: "dstval", ReducedInsts: -1,
	}
}

// TestShardCells: a soak job shards into cells that exactly partition
// [0, Programs), including a short tail cell.
func TestShardCells(t *testing.T) {
	c, _ := testCoordinator(time.Second)
	id := soakJob(t, c, 10, 3)
	j := c.jobs[id]
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if len(j.cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(j.cells), len(want))
	}
	for i, cl := range j.cells {
		if cl.start != want[i][0] || cl.end != want[i][1] {
			t.Fatalf("cell %d is [%d,%d), want [%d,%d)",
				i, cl.start, cl.end, want[i][0], want[i][1])
		}
	}
	if j.state() != "queued" {
		t.Fatalf("fresh job state %q, want queued", j.state())
	}
}

// TestMergeOrder: cells completed out of order still merge findings in
// program-index order, matching what a single process would record.
func TestMergeOrder(t *testing.T) {
	c, _ := testCoordinator(time.Second)
	id := soakJob(t, c, 4, 1)
	var leases []*Assignment
	for i := 0; i < 4; i++ {
		a := c.Lease("w", "")
		if a == nil {
			t.Fatalf("lease %d: no work", i)
		}
		leases = append(leases, a)
	}
	if a := c.Lease("w", ""); a != nil {
		t.Fatalf("leased more cells than exist: %+v", a)
	}
	if _, err := c.Result(id); err == nil {
		t.Fatal("Result succeeded on an unfinished job")
	}
	// Complete in reverse submission order.
	for i := 3; i >= 0; i-- {
		a := leases[i]
		err := c.Complete(CellResult{
			Lease: a.Lease, Worker: "w", Cursor: a.End,
			Runs: 1, Findings: []soak.Finding{finding(a.Start)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Soak.Runs != 4 || res.Soak.Programs != 4 {
		t.Fatalf("merged runs=%d programs=%d, want 4/4", res.Soak.Runs, res.Soak.Programs)
	}
	for i, f := range res.Soak.Findings {
		if f.Program != i {
			t.Fatalf("finding %d is for program %d, want %d", i, f.Program, i)
		}
	}
	if _, err := c.Result("job-999"); err == nil {
		t.Fatal("Result succeeded on an unknown job")
	}
}

// TestLeaseExpiryRequeue: a worker that heartbeats partial progress and
// then goes silent loses its lease after the TTL; the cell requeues
// with the partial findings folded in and the next worker resumes at
// the dead worker's cursor. Stale heartbeats and completes against the
// lost lease are rejected.
func TestLeaseExpiryRequeue(t *testing.T) {
	c, now := testCoordinator(time.Second)
	id := soakJob(t, c, 4, 4)

	a := c.Lease("doomed", "")
	if a == nil || a.Start != 0 || a.End != 4 {
		t.Fatalf("lease = %+v, want [0,4)", a)
	}
	reply := c.Heartbeat(Heartbeat{
		Lease: a.Lease, Worker: "doomed", Cursor: 2, Runs: 2,
		Findings: []soak.Finding{finding(0)},
	})
	if reply.Cancel || reply.End != 4 {
		t.Fatalf("heartbeat reply = %+v, want end=4", reply)
	}

	// Expire the lease: the cell must requeue from cursor 2.
	*now = now.Add(2 * time.Second)
	a2 := c.Lease("survivor", "")
	if a2 == nil {
		t.Fatal("no requeued cell after lease expiry")
	}
	if a2.Start != 2 || a2.End != 4 {
		t.Fatalf("requeued range [%d,%d), want [2,4)", a2.Start, a2.End)
	}
	if a2.Lease == a.Lease {
		t.Fatal("requeued cell reused the expired lease id")
	}

	// The dead worker's lease is gone: heartbeat says cancel, complete
	// is rejected.
	if reply := c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "doomed", Cursor: 3}); !reply.Cancel {
		t.Fatal("heartbeat on an expired lease was not cancelled")
	}
	if err := c.Complete(CellResult{Lease: a.Lease, Worker: "doomed", Cursor: 4}); err == nil {
		t.Fatal("complete on an expired lease was accepted")
	}

	err := c.Complete(CellResult{
		Lease: a2.Lease, Worker: "survivor", Cursor: 4,
		Runs: 2, Findings: []soak.Finding{finding(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	// Partial findings from the dead lease + the survivor's, runs summed.
	want := []soak.Finding{finding(0), finding(2)}
	if !reflect.DeepEqual(res.Soak.Findings, want) {
		t.Fatalf("merged findings %+v, want %+v", res.Soak.Findings, want)
	}
	if res.Soak.Runs != 4 {
		t.Fatalf("merged runs %d, want 4", res.Soak.Runs)
	}
}

// TestWorkSteal: an idle worker splits the tail off the running cell;
// the victim learns the shrunken end on its next heartbeat, and the two
// ranges exactly partition the original cell.
func TestWorkSteal(t *testing.T) {
	c, _ := testCoordinator(time.Minute)
	id := soakJob(t, c, 8, 8)

	a := c.Lease("victim", "")
	if a == nil || a.End != 8 {
		t.Fatalf("lease = %+v, want [0,8)", a)
	}
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "victim", Cursor: 2, Runs: 2})

	// Queue is empty: the second lease must steal [5,8) (mid = 2 + 6/2).
	b := c.Lease("thief", "")
	if b == nil {
		t.Fatal("no stolen cell")
	}
	if b.Start != 5 || b.End != 8 {
		t.Fatalf("stolen range [%d,%d), want [5,8)", b.Start, b.End)
	}
	// The victim's next heartbeat reports the shrunken end.
	if reply := c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "victim", Cursor: 3, Runs: 3}); reply.End != 5 {
		t.Fatalf("victim heartbeat end = %d, want 5", reply.End)
	}
	// The remaining slice [3,5) is too small to steal again.
	if x := c.Lease("greedy", ""); x != nil {
		t.Fatalf("stole a too-small remainder: %+v", x)
	}

	if err := c.Complete(CellResult{Lease: a.Lease, Worker: "victim", Cursor: 5, Runs: 5,
		Findings: []soak.Finding{finding(4)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(CellResult{Lease: b.Lease, Worker: "thief", Cursor: 8, Runs: 3,
		Findings: []soak.Finding{finding(6)}}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Soak.Runs != 8 {
		t.Fatalf("merged runs %d, want 8", res.Soak.Runs)
	}
	want := []soak.Finding{finding(4), finding(6)}
	if !reflect.DeepEqual(res.Soak.Findings, want) {
		t.Fatalf("merged findings %+v, want %+v", res.Soak.Findings, want)
	}
}

// TestFailRetryLimit: a cell that keeps failing takes the whole job
// down after the retry budget, and its queue entries stop being leased.
func TestFailRetryLimit(t *testing.T) {
	c, _ := testCoordinator(time.Minute)
	id := soakJob(t, c, 2, 2)
	for i := 0; i < 4; i++ {
		a := c.Lease("w", "")
		if a == nil {
			t.Fatalf("attempt %d: no lease", i)
		}
		c.Fail(a.Lease, "w", "boom")
	}
	j := c.jobs[id]
	if j.state() != "failed" {
		t.Fatalf("job state %q after %d fails, want failed", j.state(), 4)
	}
	if a := c.Lease("w", ""); a != nil {
		t.Fatalf("leased a cell of a failed job: %+v", a)
	}
	if _, err := c.Result(id); err == nil {
		t.Fatal("Result succeeded on a failed job")
	}
}

// TestBenchJob: bench sweeps shard one cell per benchmark and merge
// rows in benchmark submission order.
func TestBenchJob(t *testing.T) {
	c, _ := testCoordinator(time.Minute)
	id, err := c.Submit(JobSpec{Kind: "bench", Bench: &BenchSpec{
		Benchmarks: []string{"gzip", "mcf"},
		Configs:    []string{"slice2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		a := c.Lease("w", "")
		if a == nil || a.Kind != "bench" {
			t.Fatalf("lease %d = %+v, want a bench cell", i, a)
		}
		err := c.Complete(CellResult{
			Lease: a.Lease, Worker: "w", Cursor: a.End,
			Rows: []BenchRow{{Benchmark: a.Benchmark, Config: "slice2", IPC: 1.0}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bench) != 2 || res.Bench[0].Benchmark != "gzip" || res.Bench[1].Benchmark != "mcf" {
		t.Fatalf("merged rows %+v, want gzip then mcf", res.Bench)
	}
}

// TestSubmitValidation: bad specs are rejected at submission.
func TestSubmitValidation(t *testing.T) {
	c, _ := testCoordinator(time.Minute)
	bad := []JobSpec{
		{Kind: "soak"},
		{Kind: "soak", Soak: &SoakSpec{}},
		{Kind: "soak", Soak: &SoakSpec{Programs: 5, Configs: []string{"nope"}}},
		{Kind: "bench"},
		{Kind: "bench", Bench: &BenchSpec{}},
		{Kind: "frobnicate"},
	}
	for i, spec := range bad {
		if _, err := c.Submit(spec); err == nil {
			t.Fatalf("bad spec %d was accepted: %+v", i, spec)
		}
	}
}

// TestHTTPFleetEquivalence is the distributed analogue of the soak
// resume-equivalence test, over the real HTTP path: a fleet campaign
// whose first worker dies after one program (its partial progress known
// only through heartbeats) must still produce a findings report
// byte-identical to the single-process run of the same campaign. The
// test plays the dying worker by hand; a real Worker picks up the
// requeued remainder.
func TestHTTPFleetEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet equivalence soaks real programs; skipped in -short")
	}

	hook := &inject.Options{CorruptOn: true, CorruptAt: 20}
	genOpts := gen.Options{Fragments: 6, LoopIters: 2, MaxInsts: 2000}

	// Single-process reference: every program diverges at the seeded
	// corruption, so the findings list is non-trivial.
	solo, err := soak.Run(soak.Options{
		BaseSeed: 41, Programs: 3,
		Configs: []string{"slice2"}, Hook: hook, NoReduce: true, Gen: genOpts,
		OutDir: t.TempDir(),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Findings) == 0 {
		t.Fatal("reference run found nothing; the seeded fault is broken")
	}

	coord := NewCoordinator(300 * time.Millisecond)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	spec := JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed: 41, Programs: 3,
		Configs: []string{"slice2"}, Hook: hook, NoReduce: true, Gen: genOpts,
		CellPrograms: 3, // one cell: the death must requeue, not reshard
	}}
	id, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Play the doomed worker: lease the cell, run exactly one program
	// locally (keeping the lease alive meanwhile), report the partial
	// result via heartbeat — then vanish without completing.
	a, err := client.Lease("doomed")
	if err != nil || a == nil {
		t.Fatalf("lease: %v / %+v", err, a)
	}
	if a.Start != 0 || a.End != 3 {
		t.Fatalf("lease range [%d,%d), want [0,3)", a.Start, a.End)
	}
	stop := make(chan struct{})
	tick := make(chan struct{})
	go func() {
		defer close(tick)
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				_, _ = client.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "doomed"})
			}
		}
	}()
	partialOpts := spec.Soak.Options(t.TempDir())
	partialOpts.StartProgram = 0
	partialOpts.Programs = 1
	partial, err := soak.Run(partialOpts, false)
	close(stop)
	<-tick
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Heartbeat(Heartbeat{
		Lease: a.Lease, Worker: "doomed", Cursor: 1,
		Runs: partial.Runs, Findings: partial.Findings,
	}); err != nil {
		t.Fatal(err)
	}
	// Silence from here on: the lease expires and the cell requeues.

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &Worker{
		Client: client, Name: "survivor",
		OutDir: t.TempDir(), Poll: 20 * time.Millisecond,
	}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_ = w.Run(ctx)
	}()

	res, err := client.Wait(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-workerDone

	soloJSON, err := json.Marshal(solo)
	if err != nil {
		t.Fatal(err)
	}
	fleetJSON, err := json.Marshal(res.Soak)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(soloJSON, fleetJSON) {
		t.Fatalf("fleet report differs from the single-process run\nsolo:  %s\nfleet: %s",
			soloJSON, fleetJSON)
	}

	// The cell really did die and resume: the original cell must record
	// a lease expiry and a committed base at the heartbeat cursor.
	coord.mu.Lock()
	cl := coord.jobs[id].cells[0]
	fails, cursor := cl.fails, cl.cursor
	coord.mu.Unlock()
	if fails == 0 {
		t.Fatal("the doomed worker's lease never expired; the test raced")
	}
	if cursor != 3 {
		t.Fatalf("final cell cursor %d, want 3", cursor)
	}
}
