package telemetry

// Ring is a bounded event ring: a flat []Event, a write cursor, and a
// drop counter. The buffer starts small and doubles on demand up to the
// capacity, so a short run pays for the events it records rather than
// for the cap, and a bounded ring means an unattended dump cannot eat
// the heap. Recording is a struct copy plus two integer updates — no
// pointer writes, and no allocation once the ring has grown to its
// capacity — so the enabled path stays cheap enough for
// multi-million-event runs. When the full ring wraps, the oldest events
// are overwritten and Dropped reports how many were lost.
type Ring struct {
	buf     []Event
	max     int    // capacity: the length buf grows to before wrapping
	next    int    // next write index
	n       int    // live events (<= max)
	dropped uint64 // events overwritten after the ring filled
}

// DefaultRingCap bounds the standard Recorder's event ring: enough for
// every event of a few hundred thousand simulated instructions.
const DefaultRingCap = 1 << 21

// ringInitLen is the buffer length a ring starts with (or its capacity,
// if smaller): about 40 KB of events.
const ringInitLen = 1 << 10

// NewRing creates a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, min(capacity, ringInitLen)), max: capacity}
}

// Record appends one event, overwriting the oldest when full.
func (r *Ring) Record(ev Event) {
	if r.next == len(r.buf) {
		if len(r.buf) < r.max {
			r.grow()
		} else {
			r.next = 0
		}
	}
	r.buf[r.next] = ev
	r.next++
	if r.n < r.max {
		r.n++
	} else {
		r.dropped++
	}
}

// grow doubles the buffer, clamped to the capacity. It runs only while
// the ring has never wrapped, so the live events are buf[:next] in
// recording order and a plain copy keeps them so.
func (r *Ring) grow() {
	buf := make([]Event, min(2*len(r.buf), r.max))
	copy(buf, r.buf)
	r.buf = buf
}

// Len returns the number of live events.
func (r *Ring) Len() int { return r.n }

// Dropped returns how many events were overwritten after the ring
// filled.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the live events in recording order. The slice is
// freshly assembled; mutating it does not affect the ring.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.n)
	if r.n == len(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf[:r.next]...)
}
