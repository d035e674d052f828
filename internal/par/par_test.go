package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForRunsEveryTaskOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		hits := make([]atomic.Int32, n)
		For(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: task %d ran %d times", n, i, got)
			}
		}
	}
}

// TestNestedForIsBounded nests For three deep: it must not deadlock, and
// at no point may more than GOMAXPROCS-1 extra goroutines hold a slot.
func TestNestedForIsBounded(t *testing.T) {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	var peak atomic.Int64
	var leaves atomic.Int64
	observe := func() {
		for {
			b, p := busy.Load(), peak.Load()
			if b <= p || peak.CompareAndSwap(p, b) {
				return
			}
		}
	}
	For(6, func(int) {
		observe()
		For(5, func(int) {
			observe()
			For(4, func(int) {
				observe()
				leaves.Add(1)
			})
		})
	})
	if got := leaves.Load(); got != 6*5*4 {
		t.Errorf("ran %d leaf tasks, want %d", got, 6*5*4)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("peak %d extra goroutines, limit %d", p, limit)
	}
	if b := busy.Load(); b != 0 {
		t.Errorf("%d slots still held after For returned", b)
	}
}

func TestForReraisesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	For(4, func(i int) {
		if i == 0 {
			panic("boom")
		}
	})
	t.Error("For returned normally")
}
