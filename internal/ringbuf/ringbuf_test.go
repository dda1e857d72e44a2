package ringbuf

import (
	"slices"
	"testing"
)

// TestRingGrowsOnDemand pins ring memory to pushes: a new ring holds no
// slots, k < capacity pushes hold at most max(2k, minGrow) slots, a full
// ring holds exactly its capacity, and the values stay oldest-first across
// every growth step and the wrap.
func TestRingGrowsOnDemand(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 100, 4096} {
		r := New[int](capacity)
		if r.Held() != 0 || r.Len() != 0 || r.Full() {
			t.Fatalf("cap %d: new ring holds %d slots, %d values", capacity, r.Held(), r.Len())
		}
		for k := 1; k <= 2*capacity+3; k++ {
			wasFull := r.Full()
			var oldest int
			if k > 1 {
				oldest = r.Oldest()
			}
			r.Push(k)
			if k < capacity && r.Held() > max(2*k, minGrow) {
				t.Fatalf("cap %d: %d pushes hold %d slots, want <= %d", capacity, k, r.Held(), max(2*k, minGrow))
			}
			if k >= capacity && r.Held() != capacity {
				t.Fatalf("cap %d: a full ring holds %d slots, want exactly %d", capacity, r.Held(), capacity)
			}
			first := max(1, k-capacity+1)
			if wasFull && oldest != first-1 {
				t.Fatalf("cap %d: Oldest before push %d was %d, want the evicted %d", capacity, k, oldest, first-1)
			}
			if r.Len() != k-first+1 || r.Oldest() != first {
				t.Fatalf("cap %d after %d pushes: Len %d Oldest %d, want %d and %d",
					capacity, k, r.Len(), r.Oldest(), k-first+1, first)
			}
			if k%7 == 0 || k == capacity {
				want := make([]int, 0, k-first+1)
				for v := first; v <= k; v++ {
					want = append(want, v)
				}
				if got := r.AppendTo(nil); !slices.Equal(got, want) {
					t.Fatalf("cap %d after %d pushes: %v, want %v", capacity, k, got, want)
				}
			}
		}
	}
}

// TestRingReset empties the ring and releases its memory; the ring then
// refills from scratch.
func TestRingReset(t *testing.T) {
	r := New[int](4)
	for v := 1; v <= 6; v++ {
		r.Push(v)
	}
	r.Reset()
	if r.Len() != 0 || r.Held() != 0 || r.AppendTo(nil) != nil {
		t.Fatalf("reset ring holds %d values in %d slots", r.Len(), r.Held())
	}
	r.Push(7)
	r.Push(8)
	if got := r.AppendTo(nil); !slices.Equal(got, []int{7, 8}) {
		t.Fatalf("refilled ring holds %v, want [7 8]", got)
	}
}
