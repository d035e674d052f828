package engine

import (
	"context"
	"fmt"
	"time"

	"storm/internal/analytics"
	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// AnalyticOptions controls an online analytical task (KDE, clustering,
// trajectory, terms). They share the estimator queries' termination model:
// time budget, sample cap, or cancellation.
type AnalyticOptions struct {
	// TimeBudget stops the task after this duration (0 disables).
	TimeBudget time.Duration
	// MaxSamples stops after this many accepted samples (0 disables, in
	// which case the task runs until exhaustion or cancellation).
	MaxSamples int
	// ReportEvery emits a snapshot every this many accepted samples;
	// 0 means 128.
	ReportEvery int
	// Method picks the sampler; Auto consults the optimizer.
	Method Method
	// Mode selects with/without replacement (default without).
	Mode sampling.Mode
	// Seed overrides the sampling seed (0 derives one).
	Seed int64
	// Filter, when non-nil, keeps only records it accepts (e.g. one
	// user's tweets for trajectory reconstruction). Filtered-out samples
	// do not count toward MaxSamples.
	Filter func(data.ID) bool
}

func (o AnalyticOptions) withDefaults() AnalyticOptions {
	if o.ReportEvery == 0 {
		o.ReportEvery = 128
	}
	return o
}

// sampleLoop drives an analytic: it pulls samples, applies the filter,
// calls consume for accepted ones and snapshot at report points. snapshot
// returning false aborts (consumer gone). Caller holds h.mu (the read side
// suffices: analytics only read the indexes).
func (h *Handle) sampleLoop(ctx context.Context, q geo.Rect, opts AnalyticOptions, consume func(data.Entry), snapshot func(done bool) bool) error {
	seed := opts.Seed
	if seed == 0 {
		seed = h.eng.nextSeed()
	}
	sampler, _, err := h.newSampler(opts.Method, q, opts.Mode, stats.NewRNG(seed), nil)
	if err != nil {
		return err
	}
	defer closeSampler(sampler)
	start := time.Now()
	qo := h.eng.met.beginQuery(start)
	defer qo.end()
	var deadline time.Time
	if opts.TimeBudget > 0 {
		deadline = start.Add(opts.TimeBudget)
	}
	// Samples are pulled in adaptive batches (see batch.go) and consumed
	// with per-sample checks, so report cadence and stopping points do not
	// depend on the pull size.
	bufp := getEntryBuf()
	defer putEntryBuf(bufp)
	buf := *bufp
	accepted := 0
	size := minPullBatch
	for {
		select {
		case <-ctx.Done():
			snapshot(true)
			return nil
		default:
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			snapshot(true)
			return nil
		}
		want := size
		if opts.Filter == nil && opts.MaxSamples > 0 && want > opts.MaxSamples-accepted {
			// Without a filter every drawn sample is accepted, so clamping
			// the pull avoids drawing past the cap.
			want = opts.MaxSamples - accepted
		}
		n := sampling.NextBatch(sampler, buf, want)
		qo.batch(sampler, n)
		for _, e := range buf[:n] {
			if opts.Filter != nil && !opts.Filter(e.ID) {
				continue
			}
			consume(e)
			accepted++
			if accepted%opts.ReportEvery == 0 {
				if !snapshot(false) {
					return nil
				}
			}
			if opts.MaxSamples > 0 && accepted >= opts.MaxSamples {
				snapshot(true)
				return nil
			}
		}
		if n < want {
			snapshot(true)
			return nil
		}
		size = nextPullSize(size)
	}
}

// KDEOptions configures an online kernel density estimation task.
type KDEOptions struct {
	// Nx, Ny are the grid dimensions; 0 means 32.
	Nx, Ny int
	// Kernel is the smoothing kernel (default Gaussian).
	Kernel analytics.Kernel
	// Bandwidth is the kernel bandwidth; 0 derives one tenth of the
	// query's larger spatial extent.
	Bandwidth float64
	// Confidence for per-cell intervals; 0 means 0.95.
	Confidence float64
}

// KDESnapshot is one progress report of an online KDE.
type KDESnapshot struct {
	Map     *analytics.DensityMap
	Elapsed time.Duration
	Done    bool
}

// KDEOnline estimates the density surface of q from online samples,
// streaming density maps of improving quality — the paper's Figure 5
// population-density demo.
func (h *Handle) KDEOnline(ctx context.Context, q geo.Range, kopts KDEOptions, opts AnalyticOptions) (<-chan KDESnapshot, error) {
	opts = opts.withDefaults()
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	if kopts.Nx == 0 {
		kopts.Nx = 32
	}
	if kopts.Ny == 0 {
		kopts.Ny = 32
	}
	if kopts.Confidence == 0 {
		kopts.Confidence = 0.95
	}
	if kopts.Bandwidth == 0 {
		w := q.MaxX - q.MinX
		if hgt := q.MaxY - q.MinY; hgt > w {
			w = hgt
		}
		kopts.Bandwidth = w / 10
	}
	kde, err := analytics.NewKDE(q.Rect(), kopts.Nx, kopts.Ny, kopts.Kernel, kopts.Bandwidth, kopts.Confidence)
	if err != nil {
		return nil, err
	}

	out := make(chan KDESnapshot, 8)
	start := time.Now()
	go func() {
		defer close(out)
		h.mu.RLock()
		defer h.mu.RUnlock()
		err := h.sampleLoop(ctx, q.Rect(), opts,
			func(e data.Entry) { kde.Add(e.Pos) },
			func(done bool) bool {
				select {
				case out <- KDESnapshot{Map: kde.Snapshot(), Elapsed: time.Since(start), Done: done}:
					return true
				case <-ctx.Done():
					return false
				}
			})
		if err != nil {
			out <- KDESnapshot{Done: true}
		}
	}()
	return out, nil
}

// TermsSnapshot is one progress report of online short-text understanding.
type TermsSnapshot struct {
	Terms   *analytics.TermSnapshot
	Elapsed time.Duration
	Done    bool
}

// TermsOnline estimates the term-frequency distribution of a text column
// over q from online samples — the paper's Figure 6(b) short-text demo.
// topN bounds the reported term list.
func (h *Handle) TermsOnline(ctx context.Context, q geo.Range, textCol string, topN int, opts AnalyticOptions) (<-chan TermsSnapshot, error) {
	opts = opts.withDefaults()
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	h.mu.RLock()
	_, errCol := h.ds.StringColumn(textCol)
	h.mu.RUnlock()
	if errCol != nil {
		return nil, errCol
	}
	if topN <= 0 {
		topN = 10
	}
	ts := analytics.NewTermStats()
	out := make(chan TermsSnapshot, 8)
	start := time.Now()
	go func() {
		defer close(out)
		h.mu.RLock()
		defer h.mu.RUnlock()
		// Re-fetched under the query's lock: inserts before the lock may
		// have grown the column.
		col, _ := h.ds.StringColumn(textCol)
		err := h.sampleLoop(ctx, q.Rect(), opts,
			func(e data.Entry) { ts.Add(col[e.ID]) },
			func(done bool) bool {
				select {
				case out <- TermsSnapshot{Terms: ts.Snapshot(topN), Elapsed: time.Since(start), Done: done}:
					return true
				case <-ctx.Done():
					return false
				}
			})
		if err != nil {
			out <- TermsSnapshot{Done: true}
		}
	}()
	return out, nil
}

// TrajectorySnapshot is one progress report of online trajectory
// reconstruction.
type TrajectorySnapshot struct {
	Path    *analytics.Path
	Elapsed time.Duration
	Done    bool
}

// TrajectoryOnline reconstructs the approximate movement path of records
// matching userCol == user within q — the paper's Figure 6(a) demo.
// epsilon > 0 enables Douglas–Peucker simplification.
func (h *Handle) TrajectoryOnline(ctx context.Context, q geo.Range, userCol, user string, epsilon float64, opts AnalyticOptions) (<-chan TrajectorySnapshot, error) {
	opts = opts.withDefaults()
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	h.mu.RLock()
	_, errCol := h.ds.StringColumn(userCol)
	h.mu.RUnlock()
	if errCol != nil {
		return nil, errCol
	}
	// col is (re-)fetched under the query goroutine's lock below; the
	// filter closure runs only inside that goroutine.
	var col []string
	baseFilter := opts.Filter
	opts.Filter = func(id data.ID) bool {
		if col[id] != user {
			return false
		}
		return baseFilter == nil || baseFilter(id)
	}
	tr := analytics.NewTrajectory()
	out := make(chan TrajectorySnapshot, 8)
	start := time.Now()
	go func() {
		defer close(out)
		h.mu.RLock()
		defer h.mu.RUnlock()
		col, _ = h.ds.StringColumn(userCol)
		err := h.sampleLoop(ctx, q.Rect(), opts,
			func(e data.Entry) { tr.Add(e.Pos) },
			func(done bool) bool {
				select {
				case out <- TrajectorySnapshot{Path: tr.Snapshot(epsilon), Elapsed: time.Since(start), Done: done}:
					return true
				case <-ctx.Done():
					return false
				}
			})
		if err != nil {
			out <- TrajectorySnapshot{Done: true}
		}
	}()
	return out, nil
}

// ClusterSnapshot is one progress report of online spatial clustering.
type ClusterSnapshot struct {
	Clustering *analytics.Clustering
	Elapsed    time.Duration
	Done       bool
}

// ClusterOnline runs online k-means over samples from q: the clustering is
// recomputed at every report point and its quality improves with sample
// size (paper §3.2's clustering remark).
func (h *Handle) ClusterOnline(ctx context.Context, q geo.Range, k int, opts AnalyticOptions) (<-chan ClusterSnapshot, error) {
	opts = opts.withDefaults()
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = h.eng.nextSeed()
	}
	km, err := analytics.NewKMeans(k, stats.NewRNG(seed+1))
	if err != nil {
		return nil, err
	}
	out := make(chan ClusterSnapshot, 8)
	start := time.Now()
	go func() {
		defer close(out)
		h.mu.RLock()
		defer h.mu.RUnlock()
		err := h.sampleLoop(ctx, q.Rect(), opts,
			func(e data.Entry) { km.Add(e.Pos) },
			func(done bool) bool {
				select {
				case out <- ClusterSnapshot{Clustering: km.Snapshot(), Elapsed: time.Since(start), Done: done}:
					return true
				case <-ctx.Done():
					return false
				}
			})
		if err != nil {
			out <- ClusterSnapshot{Done: true}
		}
	}()
	return out, nil
}
