// Package par runs independent index-build tasks side by side on a pool
// bounded by GOMAXPROCS.
//
// The pool is process-wide and never blocks: a task runs on an extra
// goroutine only while fewer than GOMAXPROCS-1 extra goroutines are busy,
// and on the calling goroutine otherwise. Nested calls (a build task that
// itself fans out) therefore cannot deadlock waiting for a slot, and the
// goroutines doing build work are the callers plus at most GOMAXPROCS-1
// extra ones. Callers keep results deterministic by giving every task its
// own output slot; which goroutine ran a task never shows.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the extra goroutines currently running tasks.
var busy atomic.Int64

// acquire claims an extra-goroutine slot if one is free.
func acquire() bool {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		b := busy.Load()
		if b >= limit {
			return false
		}
		if busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

// For calls fn(0), …, fn(n-1) and returns once every call has returned.
// Calls may run concurrently and in any order. A panic in any call is
// re-raised on the calling goroutine after the others finish.
func For(n int, fn func(i int)) {
	var (
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	for i := 0; i < n; i++ {
		// The last task always runs here: the caller would only wait.
		if i == n-1 || !acquire() {
			fn(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
				}
				busy.Add(-1)
				wg.Done()
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Do runs the given functions as For tasks.
func Do(fns ...func()) {
	For(len(fns), func(i int) { fns[i]() })
}
