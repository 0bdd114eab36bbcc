package telemetry

import (
	"fmt"
	"slices"
	"testing"
)

// refRing is the fixed-size ring the growable Ring must be
// indistinguishable from: the whole capacity allocated up front, the
// cursor wrapping as soon as it reaches the end.
type refRing struct {
	buf     []Event
	next, n int
	dropped uint64
}

func (r *refRing) record(ev Event) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.dropped++
	}
}

func (r *refRing) events() []Event {
	out := make([]Event, 0, r.n)
	if r.n == len(r.buf) {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

func ringEvent(i int) Event {
	return Event{Cycle: int64(i), Seq: uint64(i) * 3, Arg: int64(-i), Arg2: int64(i % 7), Kind: Kind(i % numKinds), Slice: int8(i%5 - 1)}
}

// TestRingMatchesFixedRing records event counts below the capacity,
// exactly at it, and past it through two wraps, and compares every
// observable of the ring with the fixed-size reference after each count.
func TestRingMatchesFixedRing(t *testing.T) {
	for _, capacity := range []int{1, 3, 1024, 5000} {
		counts := []int{capacity - 1, capacity, capacity + 1, 2*capacity + capacity/2 + 1, 3*capacity + 1}
		for _, count := range counts {
			t.Run(fmt.Sprintf("cap=%d/events=%d", capacity, count), func(t *testing.T) {
				r := NewRing(capacity)
				ref := &refRing{buf: make([]Event, capacity)}
				for i := 0; i < count; i++ {
					r.Record(ringEvent(i))
					ref.record(ringEvent(i))
				}
				if r.Len() != ref.n {
					t.Errorf("Len = %d, want %d", r.Len(), ref.n)
				}
				if r.Dropped() != ref.dropped {
					t.Errorf("Dropped = %d, want %d", r.Dropped(), ref.dropped)
				}
				got, want := r.Events(), ref.events()
				if !slices.Equal(got, want) {
					t.Errorf("Events differ from the fixed-size ring: got %d events, want %d", len(got), len(want))
				}
			})
		}
	}
}

// TestRingRecordZeroAllocsWhenFull pins the steady state: once the ring
// holds its capacity, recording only overwrites.
func TestRingRecordZeroAllocsWhenFull(t *testing.T) {
	for _, capacity := range []int{1, 3, 1024, 5000} {
		r := NewRing(capacity)
		for i := 0; i < capacity; i++ {
			r.Record(ringEvent(i))
		}
		i := capacity
		allocs := testing.AllocsPerRun(1000, func() {
			r.Record(ringEvent(i))
			i++
		})
		if allocs != 0 {
			t.Errorf("cap %d: Record on a full ring allocates %.1f objects, want 0", capacity, allocs)
		}
	}
}
