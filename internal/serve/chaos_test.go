package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pok/internal/check/inject"
	"pok/internal/gen"
	"pok/internal/soak"
)

// chaosPattern drives n POSTs through a ChaosTransport against a
// counting server and returns the client-visible outcome string plus
// how many deliveries the server actually saw.
func chaosPattern(t *testing.T, ct *ChaosTransport, n int) (string, int64) {
	t.Helper()
	var delivered atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delivered.Add(1)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()
	ct.Base = nil
	client := &http.Client{Transport: ct, Timeout: 5 * time.Second}
	var b strings.Builder
	for i := 0; i < n; i++ {
		resp, err := client.Post(srv.URL, "application/json",
			bytes.NewReader([]byte(`{"i":1}`)))
		switch {
		case err != nil:
			b.WriteByte('x')
		case resp.StatusCode == http.StatusServiceUnavailable:
			resp.Body.Close()
			b.WriteByte('5')
		default:
			resp.Body.Close()
			b.WriteByte('.')
		}
	}
	return b.String(), delivered.Load()
}

// TestChaosDeterminism: the fault pattern is a pure function of the
// seed — same seed, same faults (client-visible outcomes AND
// server-side delivery count); a different seed diverges.
func TestChaosDeterminism(t *testing.T) {
	mk := func(seed uint64) *ChaosTransport {
		return &ChaosTransport{Seed: seed,
			Drop: 0.3, Dup: 0.2, Err: 0.2, Delay: 0.1, MaxDelay: time.Millisecond}
	}
	const n = 80
	p1, d1 := chaosPattern(t, mk(7), n)
	p2, d2 := chaosPattern(t, mk(7), n)
	if p1 != p2 || d1 != d2 {
		t.Fatalf("same seed diverged:\n%s (%d delivered)\n%s (%d delivered)", p1, d1, p2, d2)
	}
	p3, _ := chaosPattern(t, mk(8), n)
	if p1 == p3 {
		t.Fatalf("different seeds produced the identical %d-request pattern", n)
	}
	if !strings.Contains(p1, "x") || !strings.Contains(p1, "5") || !strings.Contains(p1, ".") {
		t.Fatalf("pattern %q did not exercise drops, 503s and successes", p1)
	}
}

func TestParseChaosSpec(t *testing.T) {
	ct, err := ParseChaosSpec("drop=0.05, dup=0.02,err=0.5,delay=1,maxdelay=80ms")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Drop != 0.05 || ct.Dup != 0.02 || ct.Err != 0.5 || ct.Delay != 1 ||
		ct.MaxDelay != 80*time.Millisecond {
		t.Fatalf("parsed %+v", ct)
	}
	if ct, err := ParseChaosSpec(""); err != nil || ct != nil {
		t.Fatalf("empty spec = %+v, %v; want nil, nil", ct, err)
	}
	for _, bad := range []string{"drop", "drop=2", "drop=-0.1", "nope=0.5", "maxdelay=fast"} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Fatalf("bad spec %q accepted", bad)
		}
	}
}

// TestClientTypedErrors: transport failures and 5xx are retried up to
// the budget and come back typed; 4xx rejections are permanent and
// never retried.
func TestClientTypedErrors(t *testing.T) {
	var flaky atomic.Int64
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/flaky":
			if flaky.Add(1) <= 2 {
				http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
				return
			}
			fmt.Fprint(w, `{"ok":true}`)
		case "/missing":
			gets.Add(1)
			http.Error(w, `{"error":"no such thing"}`, http.StatusNotFound)
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.RetryBase = time.Millisecond
	var out map[string]bool
	if err := c.call("GET", "/flaky", nil, &out); err != nil || !out["ok"] {
		t.Fatalf("flaky call = %v, %v", out, err)
	}
	if got := c.Stats.Retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}

	err := c.call("GET", "/missing", nil, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound || se.Msg != "no such thing" {
		t.Fatalf("404 error = %#v", err)
	}
	if Retryable(err) {
		t.Fatal("404 reported retryable")
	}
	if gets.Load() != 1 {
		t.Fatalf("404 was retried %d times", gets.Load()-1)
	}
	if !(&StatusError{Code: 500}).Temporary() || !(&StatusError{Code: 429}).Temporary() ||
		(&StatusError{Code: 400}).Temporary() {
		t.Fatal("StatusError.Temporary misclassifies")
	}

	srv.Close()
	err = c.call("GET", "/flaky", nil, nil)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("dead server error = %#v, want *TransportError", err)
	}
	if !Retryable(err) {
		t.Fatal("transport error reported non-retryable")
	}
}

// TestCoordinatorHammer races every coordinator RPC — lease,
// heartbeat, steal (implicit in lease), complete, release, fail,
// submit — from many goroutines against concurrent /api/status and
// dashboard renders. It asserts nothing beyond "no panic, no deadlock,
// every cell eventually terminal"; its real job is giving the race
// detector surface area.
func TestCoordinatorHammer(t *testing.T) {
	coord := NewCoordinator(30 * time.Millisecond) // real clock: expiries race too
	coord.SetRetryLimit(1 << 30)                   // strikes must not end the job mid-hammer
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	id, err := coord.Submit(JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed: 41, Programs: 64, CellPrograms: 4,
		Configs: []string{"slice2"},
	}})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(700 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", g)
			n := 0
			for time.Now().Before(deadline) {
				n++
				a := coord.Lease(worker, fmt.Sprintf("%s-%d", worker, n))
				if a == nil {
					coord.Heartbeat(Heartbeat{Lease: "lease-0", Worker: worker})
					continue
				}
				cur := a.Start
				for step := 0; cur < a.End && time.Now().Before(deadline); step++ {
					cur++
					reply := coord.Heartbeat(Heartbeat{
						Lease: a.Lease, Worker: worker, Cursor: cur, Runs: cur - a.Start,
						Stats: &WorkerStats{RPCRetries: int64(n)},
					})
					if reply.Cancel {
						break
					}
					if reply.End < a.End {
						a.End = reply.End
					}
				}
				switch n % 4 {
				case 0:
					coord.Fail(a.Lease, worker, "hammer")
				case 1:
					coord.Release(ReleaseRequest{Lease: a.Lease, Worker: worker, Cursor: cur})
				default:
					_ = coord.Complete(CellResult{Lease: a.Lease, Worker: worker,
						Cursor: cur, Runs: cur - a.Start})
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, err := http.Get(srv.URL + "/api/status")
				if err == nil {
					var st Status
					_ = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
				}
				resp, err = http.Get(srv.URL + "/")
				if err == nil {
					resp.Body.Close()
				}
				_, _ = coord.Result(id)
			}
		}()
	}
	wg.Wait()

	// Every cell must be in a coherent terminal or resumable state.
	st := coord.Status()
	if len(st.Jobs) != 1 {
		t.Fatalf("status jobs = %d", len(st.Jobs))
	}
	for _, cs := range st.Jobs[0].Cells {
		if cs.Cursor < cs.Start || cs.Cursor > cs.End {
			t.Fatalf("cell %d cursor %d outside [%d,%d]", cs.ID, cs.Cursor, cs.Start, cs.End)
		}
	}
}

// TestChaosFleetEquivalence is the in-process version of the chaos
// smoke: a real Worker executes a whole campaign through a seeded
// fault-injecting transport (dropped requests, dropped responses,
// duplicates, 503s, delays) and the merged report must still be
// byte-identical to the single-process run. Skipped in -short.
func TestChaosFleetEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fleet equivalence soaks real programs; skipped in -short")
	}

	hook := &inject.Options{CorruptOn: true, CorruptAt: 20}
	genOpts := gen.Options{Fragments: 6, LoopIters: 2, MaxInsts: 2000}
	solo, err := soak.Run(soak.Options{
		BaseSeed: 41, Programs: 3,
		Configs: []string{"slice2"}, Hook: hook, NoReduce: true, Gen: genOpts,
		OutDir: t.TempDir(),
	}, false)
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(time.Second)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	chaotic := NewClient(srv.URL)
	chaotic.RetryBase = 2 * time.Millisecond
	chaotic.HTTP = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &ChaosTransport{Seed: 7,
			Drop: 0.15, Dup: 0.1, Err: 0.15, Delay: 0.2, MaxDelay: 5 * time.Millisecond},
	}
	clean := NewClient(srv.URL)

	id, err := clean.Submit(JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed: 41, Programs: 3,
		Configs: []string{"slice2"}, Hook: hook, NoReduce: true, Gen: genOpts,
		CellPrograms: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &Worker{Client: chaotic, Name: "stormrider",
		OutDir: t.TempDir(), Poll: 20 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	res, err := clean.Wait(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if werr := <-done; werr != nil {
		t.Fatalf("worker exited with error: %v", werr)
	}

	soloJSON, _ := json.Marshal(solo)
	fleetJSON, _ := json.Marshal(res.Soak)
	if !bytes.Equal(soloJSON, fleetJSON) {
		t.Fatalf("chaos fleet report differs from the single-process run\nsolo:  %s\nfleet: %s",
			soloJSON, fleetJSON)
	}
	if chaotic.Stats.TransportErrors.Load()+chaotic.Stats.StatusErrors.Load() == 0 {
		t.Fatal("chaos transport injected no faults; the test tested nothing")
	}
}
