// Package ringbuf provides the bounded window behind the fleet's
// per-workload rings (observation history, error windows) and the flight
// recorder's event rings: it keeps the most recent values pushed, up to a
// fixed capacity, and allocates only for what has been pushed.
package ringbuf

// minGrow is the first allocation of a ring's backing array.
const minGrow = 8

// Ring keeps the most recent values pushed, at most its capacity. The
// backing array grows by doubling from minGrow slots up to the capacity,
// so a ring that has taken k < capacity values holds at most
// max(2k, minGrow) slots, and a full ring holds exactly its capacity. A
// Ring is not safe for concurrent use.
type Ring[T any] struct {
	vals     []T
	capacity int
	next     int // slot the next push writes; len(vals) until the ring is full
}

// New returns an empty ring that holds at most capacity values. It
// allocates nothing until the first Push. capacity must be positive.
func New[T any](capacity int) Ring[T] { return Ring[T]{capacity: capacity} }

// Push stores v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.vals) < r.capacity {
		if len(r.vals) == cap(r.vals) {
			grown := make([]T, len(r.vals), min(max(2*len(r.vals), minGrow), r.capacity))
			copy(grown, r.vals)
			r.vals = grown
		}
		r.vals = append(r.vals, v)
	} else {
		r.vals[r.next] = v
	}
	r.next = (r.next + 1) % r.capacity
}

// Len is the number of values the ring holds.
func (r *Ring[T]) Len() int { return len(r.vals) }

// Full reports whether the ring holds its capacity, so the next Push
// overwrites Oldest.
func (r *Ring[T]) Full() bool { return len(r.vals) == r.capacity }

// Oldest returns the oldest value held. The ring must not be empty.
func (r *Ring[T]) Oldest() T {
	if r.Full() {
		return r.vals[r.next]
	}
	return r.vals[0]
}

// Held is the number of slots the backing array holds: the ring's memory,
// as opposed to Len, the values in it.
func (r *Ring[T]) Held() int { return cap(r.vals) }

// AppendTo appends the values to dst oldest first and returns the result.
func (r *Ring[T]) AppendTo(dst []T) []T {
	// Until the ring is full next is len(vals), so this copies nothing.
	dst = append(dst, r.vals[r.next:]...)
	return append(dst, r.vals[:r.next]...)
}

// Reset empties the ring and releases its backing array.
func (r *Ring[T]) Reset() { r.vals, r.next = nil, 0 }
