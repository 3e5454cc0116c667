package par

import (
	"sync/atomic"
	"testing"
)

// TestForVisitsEachIndexOnce pins the pool's contract at the edges the
// callers reach: no tasks, one task, and more workers than tasks.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for _, workers := range []int{1, 2, n, n + 3} {
			hits := make([]atomic.Int32, n)
			For(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("n %d, workers %d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestForOneWorkerRunsInOrder: at one worker For is the plain loop, which
// is what keeps a one-worker simulation day in location order.
func TestForOneWorkerRunsInOrder(t *testing.T) {
	var got []int
	For(1, 10, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("call %d ran index %d, want in-order %v", i, v, got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("ran %d of 10 indices", len(got))
	}
}
