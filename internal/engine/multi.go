package engine

import (
	"context"
	"fmt"
	"time"

	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// AggSpec names one aggregate of a multi-aggregate query.
type AggSpec struct {
	Kind estimator.Kind
	Attr string
	// QuantileP applies to Kind == Quant.
	QuantileP float64
}

// MultiSnapshot is one progress report of a multi-aggregate query: all
// estimates are computed from the same sample stream, so they are mutually
// consistent (the paper's introduction reports "973 kWh with a standard
// deviation of 25 kWh" — one sample, two statistics).
type MultiSnapshot struct {
	Estimates []estimator.Estimate
	Elapsed   time.Duration
	Samples   int
	Method    string
	Done      bool
}

// multiAgg adapts the two estimator families behind one interface.
type multiAgg interface {
	add(x float64)
	snapshot(population, samples int, withoutRep bool) estimator.Estimate
}

type meanAgg struct{ est *estimator.Estimator }

func (a meanAgg) add(x float64) { a.est.Add(x) }
func (a meanAgg) snapshot(_, _ int, _ bool) estimator.Estimate {
	return a.est.Snapshot()
}

type quantAgg struct {
	kind estimator.Kind
	qe   *estimator.Quantile
}

func (a quantAgg) add(x float64) { a.qe.Add(x) }
func (a quantAgg) snapshot(population, samples int, withoutRep bool) estimator.Estimate {
	snap := a.qe.Snapshot()
	hw := snap.Hi - snap.Value
	if lo := snap.Value - snap.Lo; lo > hw {
		hw = lo
	}
	exhausted := withoutRep && samples >= population
	if exhausted {
		hw = 0
	}
	return estimator.Estimate{
		Kind:       a.kind,
		Value:      snap.Value,
		HalfWidth:  hw,
		Confidence: snap.Confidence,
		Samples:    snap.Samples,
		Population: population,
		Exact:      exhausted,
	}
}

// EstimateMultiOnline runs several aggregates over one shared sample
// stream, streaming joint snapshots. All specs must reference numeric
// columns; COUNT is excluded (it is exact and free — use Count).
func (h *Handle) EstimateMultiOnline(ctx context.Context, q geo.Range, specs []AggSpec, opts Options) (<-chan MultiSnapshot, error) {
	opts = opts.withDefaults()
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("engine: no aggregates requested")
	}
	for i, spec := range specs {
		if spec.Kind == estimator.Count {
			return nil, fmt.Errorf("engine: COUNT is exact; use Handle.Count")
		}
		if spec.Attr == "" {
			return nil, fmt.Errorf("engine: aggregate %d (%v) missing an attribute", i, spec.Kind)
		}
		h.mu.RLock()
		_, err := h.ds.NumericColumn(spec.Attr)
		h.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}

	out := make(chan MultiSnapshot, 8)
	start := time.Now()
	go func() {
		defer close(out)
		h.mu.RLock()
		defer h.mu.RUnlock()

		// Re-fetched under the query's lock (see EstimateOnline).
		cols := make([][]float64, len(specs))
		for i, spec := range specs {
			cols[i], _ = h.ds.NumericColumn(spec.Attr)
		}
		population := h.rs.Count(q.Rect())
		withoutRep := opts.Mode == sampling.WithoutReplacement
		aggs := make([]multiAgg, len(specs))
		for i, spec := range specs {
			switch spec.Kind {
			case estimator.Median, estimator.Quant:
				p := spec.QuantileP
				if spec.Kind == estimator.Median {
					p = 0.5
				}
				qe, err := estimator.NewQuantile(p, opts.Confidence)
				if err != nil {
					out <- MultiSnapshot{Done: true, Method: fmt.Sprintf("error: %v", err)}
					return
				}
				aggs[i] = quantAgg{kind: spec.Kind, qe: qe}
			default:
				est, err := estimator.New(spec.Kind, opts.Confidence, population, withoutRep)
				if err != nil {
					out <- MultiSnapshot{Done: true, Method: fmt.Sprintf("error: %v", err)}
					return
				}
				aggs[i] = meanAgg{est: est}
			}
		}

		emit := func(samples int, method string, done bool) bool {
			snap := MultiSnapshot{
				Estimates: make([]estimator.Estimate, len(aggs)),
				Elapsed:   time.Since(start),
				Samples:   samples,
				Method:    method,
				Done:      done,
			}
			for i, a := range aggs {
				snap.Estimates[i] = a.snapshot(population, samples, withoutRep)
			}
			select {
			case out <- snap:
				return true
			case <-ctx.Done():
				return false
			}
		}

		if population == 0 {
			emit(0, "empty", true)
			return
		}
		seed := opts.Seed
		if seed == 0 {
			seed = h.eng.nextSeed()
		}
		sampler, _, err := h.newSampler(opts.Method, q.Rect(), opts.Mode, stats.NewRNG(seed), nil)
		if err != nil {
			out <- MultiSnapshot{Done: true, Method: fmt.Sprintf("error: %v", err)}
			return
		}
		defer closeSampler(sampler)
		var deadline time.Time
		if opts.TimeBudget > 0 {
			deadline = start.Add(opts.TimeBudget)
		}
		// Samples are pulled in adaptive batches (see batch.go) and folded
		// with per-sample report and stop checks, so the report cadence
		// and stopping point do not depend on the pull size.
		bufp := getEntryBuf()
		defer putEntryBuf(bufp)
		buf := *bufp
		k := 0
		size := minPullBatch
		for {
			select {
			case <-ctx.Done():
				emit(k, sampler.Name(), true)
				return
			default:
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				emit(k, sampler.Name(), true)
				return
			}
			want := size
			if opts.MaxSamples > 0 && want > opts.MaxSamples-k {
				want = opts.MaxSamples - k
			}
			n := sampling.NextBatch(sampler, buf, want)
			for _, e := range buf[:n] {
				for i, a := range aggs {
					a.add(cols[i][e.ID])
				}
				k++
				if k%opts.ReportEvery == 0 {
					if !emit(k, sampler.Name(), false) {
						return
					}
				}
				if opts.MaxSamples > 0 && k >= opts.MaxSamples {
					emit(k, sampler.Name(), true)
					return
				}
			}
			if n < want {
				emit(k, sampler.Name(), true)
				return
			}
			size = nextPullSize(size)
		}
	}()
	return out, nil
}

// EstimateMulti runs EstimateMultiOnline to completion and returns the
// final joint snapshot.
func (h *Handle) EstimateMulti(ctx context.Context, q geo.Range, specs []AggSpec, opts Options) (MultiSnapshot, error) {
	ch, err := h.EstimateMultiOnline(ctx, q, specs, opts)
	if err != nil {
		return MultiSnapshot{}, err
	}
	var last MultiSnapshot
	for s := range ch {
		last = s
	}
	return last, nil
}
