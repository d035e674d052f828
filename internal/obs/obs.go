// Package obs is STORM's observability layer: allocation-free atomic
// counters, gauges, floats, and fixed-bucket histograms, collected into a
// Registry that renders expvar-format JSON snapshots.
//
// The package exists because STORM's value proposition is *online*
// reasoning — operators watch confidence intervals tighten and stop when
// the estimate is good enough — so convergence rate, sampler throughput,
// buffer-pool behaviour, and shard fan-out latency must be observable on a
// live system, not reconstructed from benchmark logs after the fact.
//
// # Design rules
//
//   - Hot-path writes are single atomic operations (Counter.Add,
//     Gauge.Add, Histogram.Observe); no locks, no allocation, no
//     formatting. Reads (Snapshot, WriteJSON) are the cold scrape path
//     and may allocate freely.
//   - Every mutating method is nil-receiver-safe and becomes a no-op on a
//     nil metric. Instrumented code therefore never branches on "are
//     metrics enabled": it unconditionally calls m.Add(1) and pays one
//     predictable nil check when metrics are off. A nil *Registry hands
//     out nil metrics, so disabling observability is a single nil at the
//     top of the stack (engine.Config.NoMetrics).
//   - Snapshot semantics under the concurrency model of PR 1: metrics are
//     written from any number of query goroutines while snapshot readers
//     run concurrently. Individual fields are atomically consistent;
//     cross-field consistency (e.g. a histogram's count vs its sum) is
//     best-effort, which is the standard contract of scrape-based metric
//     systems and is pinned by TestConcurrentMutation under -race.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; a nil *Counter is a no-op on writes and reads as zero.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a fresh counter starting at zero.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// MetricValue implements Var.
func (c *Counter) MetricValue() any { return c.Value() }

// Gauge is an instantaneous int64 metric (a level, not a rate): active
// queries, open streams, pool residency. A nil *Gauge is a no-op on
// writes and reads as zero.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a fresh gauge starting at zero.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores an absolute value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas decrease it). No-op on a
// nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MetricValue implements Var.
func (g *Gauge) MetricValue() any { return g.Value() }

// Float is an atomic float64 metric, for derived values (rates, ratios)
// published by cold paths such as the benchmark harness. A nil *Float is
// a no-op on writes and reads as zero.
type Float struct {
	bits atomic.Uint64
}

// NewFloat returns a fresh float metric starting at zero.
func NewFloat() *Float { return &Float{} }

// Set stores an absolute value. No-op on a nil receiver.
func (f *Float) Set(v float64) {
	if f == nil {
		return
	}
	f.bits.Store(math.Float64bits(v))
}

// Add accumulates delta with a compare-and-swap loop. No-op on a nil
// receiver.
func (f *Float) Add(delta float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value; zero on a nil receiver.
func (f *Float) Value() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// MetricValue implements Var.
func (f *Float) MetricValue() any { return f.Value() }

// Histogram is a fixed-bucket distribution metric. Bucket i counts
// observations v with v <= bounds[i] (and v > bounds[i-1]); one overflow
// bucket counts v > bounds[len-1]. Bounds are fixed at construction, so
// Observe is a binary search plus two atomic adds — allocation-free and
// safe for any number of concurrent writers. A nil *Histogram is a no-op
// on writes and snapshots as empty.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sum    Float
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// The bounds slice is copied; an empty bounds slice yields a histogram
// with a single overflow bucket (count/sum only).
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; equality lands in the
	// bucket (upper bounds are inclusive, the Prometheus "le" convention).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Bounds[i] is the inclusive upper bound of Counts[i]; Counts has one
// extra overflow entry for observations above the last bound.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the mean observed value, or zero when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot copies the histogram's current state; empty on a nil receiver.
// Each field is read atomically, so a snapshot racing writers is
// internally monotone (no bucket count ever appears to decrease). Observe
// bumps a bucket before the total, so buckets read while the total stood
// still hold every counted observation plus at most one in flight per
// writer: Count trails the bucket total by at most the writer count.
// Snapshot retries the bucket reads a bounded number of times for such a
// window; under sustained contention it settles for the last read, whose
// Count may also lead the buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
	}
	for try := 0; try < 64; try++ {
		before := h.count.Load()
		for i := range h.counts {
			s.Counts[i] = h.counts[i].Load()
		}
		s.Count = h.count.Load()
		if s.Count == before {
			break
		}
	}
	s.Sum = h.sum.Value()
	return s
}

// MetricValue implements Var.
func (h *Histogram) MetricValue() any {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.Snapshot()
}

// LatencyBucketsMS is the default bucket layout for millisecond latency
// histograms: roughly 2.5x steps from 100µs to 10s, matching the range
// between a warm in-memory batch pull and a cold distributed fan-out.
var LatencyBucketsMS = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// CIWidthBuckets is the default bucket layout for relative CI-width
// histograms: the interesting operator thresholds (10%, 5%, 1%, ...)
// appear as exact bucket bounds so milestone counts are readable straight
// off the snapshot.
var CIWidthBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1}

// BatchSizeBuckets is the default bucket layout for sampler batch-size
// histograms, matching the engine's adaptive 16 → 1024 pull growth.
var BatchSizeBuckets = []float64{16, 32, 64, 128, 256, 512, 1024}
