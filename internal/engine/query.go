package engine

import (
	"context"
	"fmt"
	"time"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/sampling"
	"storm/internal/stats"
	"storm/internal/wire"
)

// Options controls one online aggregation query.
type Options struct {
	// Kind is the aggregate to estimate.
	Kind estimator.Kind
	// Attr is the numeric attribute to aggregate (ignored for COUNT).
	Attr string
	// QuantileP is the quantile for Kind == Quant (Median fixes it to
	// 0.5); must be in (0, 1).
	QuantileP float64
	// Confidence level for intervals; 0 means 0.95.
	Confidence float64
	// TargetRelError stops the query once the CI half-width divided by
	// the estimate drops to this value (0 disables).
	TargetRelError float64
	// TargetHalfWidth stops the query once the CI half-width drops to
	// this absolute value (0 disables).
	TargetHalfWidth float64
	// TimeBudget stops the query after this duration, returning the best
	// estimate so far — the paper's "best-effort" mode (0 disables).
	TimeBudget time.Duration
	// MaxSamples stops after this many samples (0 disables).
	MaxSamples int
	// Mode selects with/without replacement; the default
	// (WithoutReplacement) converges to the exact answer.
	Mode sampling.Mode
	// Method picks the sampler; Auto consults the query optimizer.
	Method Method
	// Where restricts the aggregate to records whose numeric attributes
	// satisfy every term (the query language's WHERE comparisons, ANDed).
	// Samples stay exactly uniform over the qualifying records, and the
	// reported Population is the qualifying count. Nil means no predicate.
	Where []pred.Term
	// Pushdown overrides the planner's predicate strategy; the zero value
	// (PushdownAuto) picks pushdown or rejection by estimated selectivity.
	Pushdown PushdownStrategy
	// Last restricts the query to records whose event time (the t
	// coordinate, in seconds) lies in the trailing window of this duration
	// ending at the dataset's watermark — the `LAST <dur>` clause. The
	// window is resolved against the watermark once, when the query
	// starts; records streamed in later do not join a running query. 0
	// disables. Composes with Where: the population is the windowed
	// qualifying count.
	Last time.Duration
	// ReportEvery emits a snapshot every this many samples; 0 means 64.
	ReportEvery int
	// Seed overrides the query's sampling seed (0 derives one from the
	// engine seed sequence). Two queries with the same explicit seed,
	// range and options return identical sample streams whether they run
	// serially or concurrently: per-node sample buffers are deterministic
	// in the index state, never in other queries' history.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.ReportEvery == 0 {
		o.ReportEvery = 64
	}
	return o
}

// Snapshot is one progress report of an online query.
type Snapshot struct {
	estimator.Estimate
	// Elapsed is the time since query start.
	Elapsed time.Duration
	// Method is the sampler that served the query.
	Method string
	// IO is the simulated I/O attributed to this query so far. It is
	// counted through a per-query iosim.Counter, so it stays exact even
	// when many queries run concurrently; zero when I/O simulation is
	// disabled. CostUnits is not attributed per query (hit/miss costs are
	// charged on the shared device).
	IO iosim.Stats
	// Done marks the final snapshot: target met, budget spent, sample
	// exhausted, or context cancelled.
	Done bool
	// Degraded marks a distributed query that lost shards mid-stream
	// (crash or retry exhaustion). The estimate then covers the surviving
	// population only: Population has been shrunk by the lost shards'
	// matching counts so the CI stays honest over what can still be
	// sampled (see DESIGN.md §4.3).
	Degraded bool
	// ShardsLost is how many shards the query lost mid-stream; 0 unless
	// Degraded.
	ShardsLost int
	// Recovered marks a distributed query that lost shards mid-stream and
	// re-admitted every one of them after they recovered: the estimate is
	// back over the full population (Population restored, no lost mass).
	// Mutually exclusive with Degraded.
	Recovered bool
	// FailedOver marks a distributed query that lost a shard replica
	// mid-stream and moved its remainder onto a surviving copy. Unlike
	// Degraded, the population is intact — the stream stays exactly
	// uniform over the full matching set, the CI needs no lost-mass
	// widening, and the final answer matches a healthy run's guarantees.
	// A query can be both FailedOver and Degraded when some shard lost
	// every copy while another only lost one (see DESIGN.md §4.8).
	FailedOver bool
	// RejectRatio is the fraction of the sampler's draws that rejection
	// steps discarded (SamplerStats Rejects/Draws): out-of-range or
	// predicate-failing candidates for SampleFirst and the rejection
	// WHERE strategy, weight-consumed non-qualifying draws for pruned
	// RS-tree streams. Zero for exact answers and clean pushdown streams
	// — the headline number the A10 ablation compares across strategies.
	RejectRatio float64
	// Windowed marks a `LAST <dur>` query. WindowLo and WindowHi are the
	// resolved event-time bounds (seconds, anchored at the dataset
	// watermark) the query actually covered; an inverted pair
	// (WindowLo > WindowHi) reports a window resolved against a dataset
	// that has never held a record — an empty population, not an error.
	Windowed bool
	// WindowLo and WindowHi bound the window (see Windowed).
	WindowLo, WindowHi float64
	// LostMassLow and LostMassHigh, set only on degraded AVG/SUM
	// snapshots, are worst-case bounds on the aggregate over the full
	// pre-crash population: the surviving-population CI widened by the
	// lost shards' per-attribute min/max summaries (see
	// estimator.LostMassBounds and DESIGN.md §4.3). Whenever the CI
	// covers the surviving aggregate, [LostMassLow, LostMassHigh] covers
	// the full-population truth. Both zero when unavailable (healthy or
	// recovered query, non-AVG/SUM kind, or no summary for the
	// attribute).
	LostMassLow  float64
	LostMassHigh float64
}

// EstimateOnline executes an online aggregation query, streaming snapshots
// on the returned channel until the query terminates; the final snapshot
// has Done = true and the channel is then closed. Cancel ctx to stop early
// (the paper's interactive-exploration flow: fire the next query without
// waiting for this one).
func (h *Handle) EstimateOnline(ctx context.Context, q geo.Range, opts Options) (<-chan Snapshot, error) {
	opts = opts.withDefaults()
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	if opts.Kind != estimator.Count {
		if opts.Attr == "" {
			return nil, fmt.Errorf("engine: %v requires an attribute", opts.Kind)
		}
		// Column metadata is mutated by Insert; read it under the lock.
		h.mu.RLock()
		ok := h.ds.HasNumeric(opts.Attr)
		h.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("engine: dataset %q has no numeric column %q", h.name, opts.Attr)
		}
	}
	if opts.Kind == estimator.Quant && (opts.QuantileP <= 0 || opts.QuantileP >= 1) {
		return nil, fmt.Errorf("engine: QUANTILE requires 0 < p < 1, got %v", opts.QuantileP)
	}

	out := make(chan Snapshot, 16)
	go func() {
		defer close(out)
		// Read lock: queries share the handle; only updates take the
		// write side.
		h.mu.RLock()
		defer h.mu.RUnlock()
		h.runEstimate(ctx, q.Rect(), opts, out)
	}()
	return out, nil
}

// Estimate runs EstimateOnline to completion and returns the final
// estimate — the non-interactive convenience used by tests and examples.
func (h *Handle) Estimate(ctx context.Context, q geo.Range, opts Options) (Snapshot, error) {
	ch, err := h.EstimateOnline(ctx, q, opts)
	if err != nil {
		return Snapshot{}, err
	}
	var last Snapshot
	for s := range ch {
		last = s
	}
	return last, nil
}

// runEstimate is the evaluator loop. Caller holds h.mu.
func (h *Handle) runEstimate(ctx context.Context, q geo.Rect, opts Options, out chan<- Snapshot) {
	start := time.Now()
	qo := h.beginQuery(start)
	defer qo.end()
	seed := opts.Seed
	if seed == 0 {
		seed = h.eng.nextSeed()
	}
	rng := stats.NewRNG(seed)

	// Resolve the predicate plan and method up front: the population is
	// the qualifying count — for distributed queries the cluster's, which
	// excludes shards that are already down — the honest effective N for
	// the stream the coordinator can deliver.
	plan, emptyPred, err := h.planWhere(opts.Where, opts.Pushdown)
	if err != nil {
		out <- Snapshot{Done: true, Method: fmt.Sprintf("error: %v", err)}
		return
	}
	// Resolve the LAST window against the watermark before sizing the
	// population, so estimator CIs, finite-population corrections and
	// exactness all use the windowed count. Local methods narrow the query
	// rectangle's time axis here; the distributed method keeps the rect
	// intact and ships the resolved window as a wire term so every shard
	// narrows its own time axis — identically in-process and over TCP.
	win := h.window(opts.Last)
	windowed, winLo, winHi := win.Set, win.Lo, win.Hi
	if h.cluster == nil {
		// No cluster: narrow before method resolution so the optimizer
		// costs the rectangle the query actually covers.
		q = win.Apply(q)
		win = wire.Window{}
	}
	opts.Method = h.resolveMethod(opts.Method, q)
	if win.Set {
		if opts.Method == MethodDistributed {
			if plan == nil {
				plan = &wherePlan{}
			}
			plan.win = win
		} else {
			q = win.Apply(q)
		}
	}
	population := 0
	if !emptyPred {
		population = h.qualifying(q, opts.Method, plan)
	}

	// Order statistics go through the quantile estimator, which keeps
	// its sample and reports distribution-free order-statistic bounds.
	if opts.Kind == estimator.Median || opts.Kind == estimator.Quant {
		h.runQuantile(ctx, q, opts, population, plan, rng, start, out)
		return
	}

	est, err := estimator.New(opts.Kind, opts.Confidence, population, opts.Mode == sampling.WithoutReplacement)
	if err != nil {
		// Options were validated above; population is always known here,
		// so this is unreachable, but fail loudly rather than silently.
		out <- Snapshot{Done: true}
		return
	}

	var ctr *iosim.Counter
	var deg degrader
	var fo failoverer
	var lmb lostMassBounder
	var srep sampling.StatsReporter
	wasDegraded, wasRecovered, wasFailedOver := false, false, false
	emit := func(done bool, method string) bool {
		var shardsLost int
		recovered := false
		failedOver := fo != nil && fo.Failovers() > 0
		if failedOver && !wasFailedOver {
			wasFailedOver = true
			h.eng.met.queriesFailedOver.Inc()
		}
		if deg != nil {
			lost, lostPop := deg.Degradation()
			// Re-target the estimator at the stream's current effective
			// population before snapshotting: shards that died mid-query
			// shrink it so the point estimate, SUM/COUNT scaling and
			// finite-population correction stay honest over what the
			// stream can still cover, and shards re-admitted after
			// recovering restore it (see DESIGN.md §4.3).
			shardsLost = lost
			est.SetPopulation(population - lostPop)
			if lost > 0 && !wasDegraded {
				wasDegraded = true
				h.eng.met.queriesDegraded.Inc()
			}
			if rm, ok := deg.(readmitter); ok && rm.Readmits() > 0 && lost == 0 {
				// Every lost shard came back: the query has recovered
				// onto the full population.
				recovered = true
				if !wasRecovered {
					wasRecovered = true
					h.eng.met.queriesRecovered.Inc()
				}
			}
		}
		s := Snapshot{
			Estimate:   est.Snapshot(),
			Elapsed:    time.Since(start),
			Method:     method,
			Done:       done,
			Degraded:   shardsLost > 0,
			ShardsLost: shardsLost,
			Recovered:  recovered,
			FailedOver: failedOver,
			Windowed:   windowed,
			WindowLo:   winLo,
			WindowHi:   winHi,
		}
		if shardsLost > 0 && lmb != nil {
			if lo, hi, lostN, ok := lmb.LostMassBounds(opts.Attr); ok {
				if low, high, ok := estimator.LostMassBounds(s.Estimate, lo, hi, lostN); ok {
					s.LostMassLow, s.LostMassHigh = low, high
				}
			}
		}
		if ctr != nil {
			s.IO = ctr.Snapshot()
		}
		if srep != nil {
			if st := srep.SamplerStats(); st.Draws > 0 {
				s.RejectRatio = float64(st.Rejects) / float64(st.Draws)
			}
		}
		qo.ci(s.RelativeErrorBound())
		select {
		case out <- s:
			return true
		case <-ctx.Done():
			return false
		}
	}

	// COUNT is exact via canonical range counting (predicates included:
	// the qualifying population is counted through the pruned traversal):
	// answer immediately.
	if opts.Kind == estimator.Count {
		emit(true, "range-count")
		return
	}
	if population == 0 {
		emit(true, "empty")
		return
	}

	sampler, c, err := h.newSampler(opts.Method, q, opts.Mode, rng, plan)
	if err != nil {
		// Surface the configuration error as a terminal zero snapshot;
		// EstimateOnline validated what it could synchronously.
		emit(true, fmt.Sprintf("error: %v", err))
		return
	}
	defer closeSampler(sampler)
	ctr = c
	deg, _ = sampler.(degrader)
	fo, _ = sampler.(failoverer)
	lmb, _ = sampler.(lostMassBounder)
	srep, _ = sampler.(sampling.StatsReporter)
	col, err := h.ds.NumericColumn(opts.Attr)
	if err != nil {
		emit(true, fmt.Sprintf("error: %v", err))
		return
	}
	// Feed the dataset's contract profile with this query's outcome; the
	// contract planner's rate/CV predictions come from these EWMAs.
	defer func() {
		h.prof.observe(opts.Attr, opts.Confidence, est.Snapshot(), time.Since(start))
	}()

	var deadline time.Time
	if opts.TimeBudget > 0 {
		deadline = start.Add(opts.TimeBudget)
		if d, ok := sampler.(deadliner); ok {
			// Push the budget down to the shard fetch boundary: a
			// distributed sampler then caps per-fetch RPC timeouts and
			// stops retry/backoff at the deadline instead of letting one
			// slow shard run the query past it.
			d.SetDeadline(deadline)
		}
	}

	targetMet := func() bool {
		snap := est.Snapshot()
		if snap.Exact {
			return true
		}
		if opts.TargetHalfWidth > 0 && snap.HalfWidth <= opts.TargetHalfWidth {
			return true
		}
		if opts.TargetRelError > 0 && snap.RelativeErrorBound() <= opts.TargetRelError {
			return true
		}
		return false
	}

	// Samples are pulled in adaptive batches (see batch.go) but folded into
	// the estimator with per-sample report and termination checks, so
	// emitted snapshots and stopping points do not depend on the pull size
	// — batching only amortizes sampler and device overheads.
	bufp := getEntryBuf()
	defer putEntryBuf(bufp)
	buf := *bufp
	k := 0
	size := minPullBatch
	for {
		select {
		case <-ctx.Done():
			emit(true, sampler.Name())
			return
		default:
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			emit(true, sampler.Name())
			return
		}
		want := size
		if opts.MaxSamples > 0 && want > opts.MaxSamples-k {
			want = opts.MaxSamples - k
		}
		n := sampling.NextBatch(sampler, buf, want)
		qo.batch(sampler, n)
		for _, e := range buf[:n] {
			est.Add(col[e.ID])
			k++
			if k%opts.ReportEvery == 0 {
				if !emit(false, sampler.Name()) {
					return
				}
				if targetMet() {
					emit(true, sampler.Name())
					return
				}
			}
			if opts.MaxSamples > 0 && k >= opts.MaxSamples {
				emit(true, sampler.Name())
				return
			}
		}
		if n < want {
			emit(true, sampler.Name())
			return
		}
		size = nextPullSize(size)
	}
}

// degrader is implemented by samplers whose stream can lose part of its
// population mid-query (the distributed coordinator): Degradation reports
// how many shards were lost and the matching population lost with them.
type degrader interface {
	Degradation() (shardsLost, lostPopulation int)
}

// readmitter is implemented by degradable samplers that can re-admit a
// lost shard after it recovers: Readmits reports how many re-admissions
// the query has made. A query with Readmits > 0 and no currently lost
// shards has recovered onto the full population.
type readmitter interface {
	Readmits() int
}

// deadliner is implemented by samplers that can enforce a wall-clock
// deadline inside their own draw machinery (the distributed coordinator
// caps per-fetch RPC timeouts and abandons retry/backoff at the
// deadline). The evaluator loop installs Options.TimeBudget through it so
// contract deadlines hold at the shard fetch boundary, not just between
// batches.
type deadliner interface {
	SetDeadline(time.Time)
}

// failoverer is implemented by samplers that can move a shard's stream
// remainder onto a surviving replica when the serving copy dies (the
// distributed coordinator at Replicas >= 2): Failovers reports how many
// such moves the query has made. Unlike degradation, a failover keeps
// the population intact — the snapshot surfaces it as FailedOver, not
// Degraded.
type failoverer interface {
	Failovers() int
}

// lostMassBounder is implemented by degradable samplers that can bound
// the attribute values of their lost population from coordinator-side
// per-shard summaries (count/sum/min/max per numeric attribute): every
// lost record's value of attr provably lies in [lo, hi]. The engine
// combines these with the surviving-population CI via
// estimator.LostMassBounds into Snapshot.LostMassLow/High.
type lostMassBounder interface {
	LostMassBounds(attr string) (lo, hi float64, lostPop int, ok bool)
}

// resolveMethod applies the optimizer to Auto and returns any other method
// unchanged. Caller holds h.mu (read side suffices).
func (h *Handle) resolveMethod(m Method, q geo.Rect) Method {
	if m == Auto {
		return h.choose(q)
	}
	return m
}

// runQuantile is the evaluator loop for MEDIAN/QUANTILE queries. Caller
// holds h.mu. The Snapshot's HalfWidth is the wider side of the
// order-statistic confidence bounds.
func (h *Handle) runQuantile(ctx context.Context, q geo.Rect, opts Options, population int, plan *wherePlan, rng *stats.RNG, start time.Time, out chan<- Snapshot) {
	qo := h.beginQuery(start)
	defer qo.end()
	p := opts.QuantileP
	if opts.Kind == estimator.Median {
		p = 0.5
	}
	qe, err := estimator.NewQuantile(p, opts.Confidence)
	if err != nil {
		out <- Snapshot{Done: true, Method: fmt.Sprintf("error: %v", err)}
		return
	}
	// The caller already narrowed q (or attached the window to the plan);
	// re-resolving here only feeds the display fields, and is stable under
	// h.mu — the watermark advances only with the write lock held.
	win := h.window(opts.Last)
	if population == 0 {
		out <- Snapshot{
			Estimate: estimator.Estimate{Kind: opts.Kind, Confidence: opts.Confidence},
			Done:     true, Method: "empty",
			Windowed: win.Set, WindowLo: win.Lo, WindowHi: win.Hi,
		}
		return
	}
	sampler, ctr, err := h.newSampler(opts.Method, q, opts.Mode, rng, plan)
	if err != nil {
		out <- Snapshot{Done: true, Method: fmt.Sprintf("error: %v", err)}
		return
	}
	defer closeSampler(sampler)
	deg, _ := sampler.(degrader)
	fo, _ := sampler.(failoverer)
	srep, _ := sampler.(sampling.StatsReporter)
	col, err := h.ds.NumericColumn(opts.Attr)
	if err != nil {
		out <- Snapshot{Done: true, Method: fmt.Sprintf("error: %v", err)}
		return
	}
	var deadline time.Time
	if opts.TimeBudget > 0 {
		deadline = start.Add(opts.TimeBudget)
		if d, ok := sampler.(deadliner); ok {
			d.SetDeadline(deadline)
		}
	}

	wasDegraded, wasRecovered, wasFailedOver := false, false, false
	emit := func(done bool) bool {
		// Shard loss shrinks the quantile's effective population the same
		// way runEstimate's does: exhaustion and the reported Population
		// track what the stream can still deliver. Re-admitted shards
		// restore it (lostPop drops back to zero), and the down→up
		// transition is surfaced as Recovered.
		effPop := population
		shardsLost := 0
		recovered := false
		failedOver := fo != nil && fo.Failovers() > 0
		if failedOver && !wasFailedOver {
			wasFailedOver = true
			h.eng.met.queriesFailedOver.Inc()
		}
		if deg != nil {
			lost, lostPop := deg.Degradation()
			shardsLost = lost
			effPop = population - lostPop
			if lost > 0 && !wasDegraded {
				wasDegraded = true
				h.eng.met.queriesDegraded.Inc()
			}
			if rm, ok := deg.(readmitter); ok && rm.Readmits() > 0 && lost == 0 {
				recovered = true
				if !wasRecovered {
					wasRecovered = true
					h.eng.met.queriesRecovered.Inc()
				}
			}
		}
		snap := qe.Snapshot()
		hw := snap.Hi - snap.Value
		if lo := snap.Value - snap.Lo; lo > hw {
			hw = lo
		}
		exhausted := opts.Mode == sampling.WithoutReplacement && snap.Samples >= effPop
		if exhausted {
			hw = 0
		}
		s := Snapshot{
			Estimate: estimator.Estimate{
				Kind:       opts.Kind,
				Value:      snap.Value,
				HalfWidth:  hw,
				Confidence: opts.Confidence,
				Samples:    snap.Samples,
				Population: effPop,
				Exact:      exhausted,
			},
			Elapsed:    time.Since(start),
			Method:     sampler.Name(),
			Done:       done,
			Degraded:   shardsLost > 0,
			ShardsLost: shardsLost,
			Recovered:  recovered,
			FailedOver: failedOver,
			Windowed:   win.Set,
			WindowLo:   win.Lo,
			WindowHi:   win.Hi,
		}
		if ctr != nil {
			s.IO = ctr.Snapshot()
		}
		if srep != nil {
			if st := srep.SamplerStats(); st.Draws > 0 {
				s.RejectRatio = float64(st.Rejects) / float64(st.Draws)
			}
		}
		qo.ci(s.RelativeErrorBound())
		select {
		case out <- s:
			return true
		case <-ctx.Done():
			return false
		}
	}

	// Adaptive batch pulls with per-sample checks (see runEstimate).
	bufp := getEntryBuf()
	defer putEntryBuf(bufp)
	buf := *bufp
	k := 0
	size := minPullBatch
	for {
		select {
		case <-ctx.Done():
			emit(true)
			return
		default:
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			emit(true)
			return
		}
		want := size
		if opts.MaxSamples > 0 && want > opts.MaxSamples-k {
			want = opts.MaxSamples - k
		}
		n := sampling.NextBatch(sampler, buf, want)
		qo.batch(sampler, n)
		for _, e := range buf[:n] {
			qe.Add(col[e.ID])
			k++
			if k%opts.ReportEvery == 0 {
				if !emit(false) {
					return
				}
				if opts.TargetHalfWidth > 0 {
					snap := qe.Snapshot()
					if snap.Hi-snap.Lo <= 2*opts.TargetHalfWidth {
						emit(true)
						return
					}
				}
			}
			if opts.MaxSamples > 0 && k >= opts.MaxSamples {
				emit(true)
				return
			}
		}
		if n < want {
			emit(true)
			return
		}
		size = nextPullSize(size)
	}
}

// GroupsSnapshot is one progress report of an online group-by query.
type GroupsSnapshot struct {
	Groups  []estimator.GroupEstimate
	Elapsed time.Duration
	Samples int
	Done    bool
}

// GroupByOnline estimates a per-group aggregate (AVG only, the standard
// online group-by) keyed by a string column, streaming snapshots whose
// group means tighten as samples arrive. Groups appear as soon as a sample
// lands in them.
func (h *Handle) GroupByOnline(ctx context.Context, q geo.Range, attr, groupCol string, opts Options) (<-chan GroupsSnapshot, error) {
	opts = opts.withDefaults()
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	if opts.Kind != estimator.Avg {
		return nil, fmt.Errorf("engine: GROUP BY supports AVG only (per-group population sizes are unknown)")
	}
	h.mu.RLock()
	_, errNum := h.ds.NumericColumn(attr)
	_, errStr := h.ds.StringColumn(groupCol)
	h.mu.RUnlock()
	if errNum != nil {
		return nil, errNum
	}
	if errStr != nil {
		return nil, errStr
	}
	out := make(chan GroupsSnapshot, 8)
	start := time.Now()
	go func() {
		defer close(out)
		h.mu.RLock()
		defer h.mu.RUnlock()
		// Re-fetch the columns under the query's lock: inserts between
		// validation and here may have grown them, and the sampler can
		// return those new records.
		col, _ := h.ds.NumericColumn(attr)
		keys, _ := h.ds.StringColumn(groupCol)
		gb := estimator.NewGroupBy(estimator.Avg, opts.Confidence)
		samples := 0
		err := h.sampleLoop(ctx, q.Rect(), AnalyticOptions{
			TimeBudget:  opts.TimeBudget,
			MaxSamples:  opts.MaxSamples,
			ReportEvery: opts.ReportEvery,
			Method:      opts.Method,
			Mode:        opts.Mode,
			Seed:        opts.Seed,
		},
			func(e data.Entry) {
				gb.Add(keys[e.ID], col[e.ID])
				samples++
			},
			func(done bool) bool {
				select {
				case out <- GroupsSnapshot{Groups: gb.Snapshot(), Elapsed: time.Since(start), Samples: samples, Done: done}:
					return true
				case <-ctx.Done():
					return false
				}
			})
		if err != nil {
			out <- GroupsSnapshot{Done: true}
		}
	}()
	return out, nil
}

// Sample exposes raw online samples from a range: it returns up to k
// entries using the given method (the STORM library/API surface that
// customized analytics build on).
func (h *Handle) Sample(q geo.Range, k int, method Method, mode sampling.Mode, seed int64) ([]data.Entry, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if seed == 0 {
		seed = h.eng.nextSeed()
	}
	sampler, _, err := h.newSampler(method, q.Rect(), mode, stats.NewRNG(seed), nil)
	if err != nil {
		return nil, err
	}
	defer closeSampler(sampler)
	qo := h.beginQuery(time.Now())
	defer qo.end()
	out := make([]data.Entry, k)
	got := sampling.NextBatch(sampler, out, k)
	qo.batch(sampler, got)
	return out[:got], nil
}
