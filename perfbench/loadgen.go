package main

import (
	"sync"
	"time"
)

// pacer emits n operations at fixed intervals from start, each stamped
// with its scheduled send time, and tracks how late it ran.
type pacer struct {
	late time.Duration
}

type scheduled[T any] struct {
	v   T
	due time.Time
}

// run sends n scheduled values on a channel buffered for all n sends, so
// the generator never waits for busy connections: a stalled server shows
// up as queueing delay in the operations' latency, not as a slower
// offered rate. Closing stop (nil: never) ends the schedule early.
func run[T any](p *pacer, n int, start time.Time, every time.Duration, stop <-chan struct{}, gen func(i int) T) <-chan scheduled[T] {
	ch := make(chan scheduled[T], n)
	go func() {
		defer close(ch)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * every)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			if l := time.Since(due); l > p.late {
				p.late = l
			}
			ch <- scheduled[T]{gen(i), due}
		}
	}()
	return ch
}

// openLoop offers n statements at rate per second on conns, each
// connection taking the next due statement when it is free. Latencies
// are later measured from each statement's scheduled time.
func openLoop(conns []*conn, next func() *stmt, rate float64, n int, tr *tracer) ([]*queryResult, time.Duration) {
	var p pacer
	ops := run(&p, n, time.Now(), time.Duration(float64(time.Second)/rate), nil, func(int) *stmt { return next() })
	out := make([][]*queryResult, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for op := range ops {
				r := c.query(op.v, op.due)
				traceQuery(tr, r)
				out[i] = append(out[i], r)
			}
		}(i, c)
	}
	wg.Wait()
	var all []*queryResult
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all, p.late
}

// traceQuery records a client-side request as spans: the root covers
// scheduled send time to the done line, with children for time queued
// behind busy connections, time to the first bounded CI, and the rest of
// the stream.
func traceQuery(tr *tracer, r *queryResult) {
	if tr == nil || !r.ok() {
		return
	}
	op := int64(r.st.id)
	root := tr.record("http.query", span{}, op, r.due, r.done)
	tr.record("loadgen.queue", root, op, r.due, r.sent)
	tr.record("http.first_ci", root, op, r.sent, r.firstCI)
	tr.record("http.stream", root, op, r.firstCI, r.done)
}

// closedLoop sends n statements back to back over conns and returns the
// answers and the elapsed time.
func closedLoop(conns []*conn, next func() *stmt, n int) ([]*queryResult, time.Duration) {
	ch := make(chan *stmt, n) // holds the whole batch, so it is filled up front
	for i := 0; i < n; i++ {
		ch <- next()
	}
	close(ch)
	start := time.Now()
	out := make([][]*queryResult, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for st := range ch {
				out[i] = append(out[i], c.query(st, time.Now()))
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []*queryResult
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all, elapsed
}

// produce POSTs batches on c at a fixed interval starting at start,
// until they run out or stop is closed.
func produce(c *conn, batches []*batch, start time.Time, every time.Duration, stop <-chan struct{}) ([]ingestResult, time.Duration) {
	var p pacer
	ops := run(&p, len(batches), start, every, stop, func(i int) *batch { return batches[i] })
	var out []ingestResult
	for op := range ops {
		out = append(out, c.ingest(op.v, op.due))
	}
	return out, p.late
}

// pollVisible repeats the streamed COUNT until it reports want records
// or timeout passes, returning every answer.
func pollVisible(c *conn, st *stmt, want int, timeout time.Duration) []*queryResult {
	var out []*queryResult
	deadline := time.Now().Add(timeout)
	for {
		r := c.query(st, time.Now())
		out = append(out, r)
		if !r.ok() || r.last.Population >= want || time.Now().After(deadline) {
			return out
		}
		time.Sleep(10 * time.Millisecond)
	}
}
