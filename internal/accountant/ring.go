package accountant

// ring is a bounded log that keeps the newest max entries and counts the
// ones it evicts, overwriting the oldest in place once full (the pattern
// of faults.Log). It never holds more than max entries, nor capacity
// for more. max < 0 keeps everything.
type ring[T any] struct {
	buf     []T
	max     int
	next    int // oldest entry, and the next write, once full
	dropped int
}

func newRing[T any](max int) ring[T] { return ring[T]{max: max} }

// push appends v, evicting the oldest entry when full.
func (r *ring[T]) push(v T) {
	if r.max < 0 || len(r.buf) < r.max {
		if r.max > 0 && len(r.buf) == cap(r.buf) {
			grown := make([]T, len(r.buf), min(max(2*cap(r.buf), 16), r.max))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.max
	r.dropped++
}

// slice returns a copy of the entries, oldest first (nil when empty).
func (r *ring[T]) slice() []T {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// last returns the newest entry, or the zero value when empty.
func (r *ring[T]) last() T {
	if len(r.buf) == 0 {
		var zero T
		return zero
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.buf) - 1
	}
	return r.buf[i]
}
