package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"storm/internal/data"
)

// oracle answers statements exactly by scanning the generated rows, kept
// sorted by longitude so a REGION scan touches only its longitude band.
type oracle struct {
	lon, lat, t, alt []float64
}

func newOracle(ds *data.Dataset) (*oracle, error) {
	alt, err := ds.NumericColumn("altitude")
	if err != nil {
		return nil, err
	}
	n := ds.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ds.Pos(data.ID(idx[a]))[0] < ds.Pos(data.ID(idx[b]))[0] })
	o := &oracle{lon: make([]float64, n), lat: make([]float64, n), t: make([]float64, n), alt: make([]float64, n)}
	for i, id := range idx {
		p := ds.Pos(data.ID(id))
		o.lon[i], o.lat[i], o.t[i], o.alt[i] = p[0], p[1], p[2], alt[id]
	}
	return o, nil
}

// answer returns how many rows st selects and the mean and standard
// deviation of their altitude; the WHERE comparison applies only when
// useWhere is set.
func (o *oracle) answer(st *stmt, useWhere bool) (n int, mean, sd float64) {
	lo := sort.SearchFloat64s(o.lon, st.box[0])
	sum, sumSq := 0.0, 0.0
	for i := lo; i < len(o.lon) && o.lon[i] <= st.box[2]; i++ {
		if o.lat[i] < st.box[1] || o.lat[i] > st.box[3] {
			continue
		}
		if st.hasTime && (o.t[i] < st.time[0] || o.t[i] > st.time[1]) {
			continue
		}
		if useWhere && st.hasWhere && o.alt[i] < st.minAlt {
			continue
		}
		n++
		sum += o.alt[i]
		sumSq += o.alt[i] * o.alt[i]
	}
	if n == 0 {
		return 0, 0, 0
	}
	mean = sum / float64(n)
	return n, mean, math.Sqrt(math.Max(0, sumSq/float64(n)-mean*mean))
}

// solve fills in the exact answer of every base-region statement.
func (o *oracle) solve(sts []*stmt) {
	for _, st := range sts {
		st.truthN, st.truthAvg, st.truthSD = o.answer(st, true)
	}
}

// wideZ bounds a sampled AVG's error in standard errors of the mean,
// computed from the true spread of the selected rows: a uniform sample
// of n of N rows misses the truth by more than wideZ of them with
// probability ~2e-9, while a biased sampler or a wrong population does
// not. The bound uses the oracle's standard deviation, not the answer's
// own CI: a stream stops as soon as its CI meets the target, and on
// skewed data a small sample that missed the upper tail has both a low
// mean and a small variance, so its CI can sit far from the truth
// without any sampler fault. How often a CI covers the truth is the
// nominal-coverage check's job.
const wideZ = 6.0

// zOf returns the two-sided normal critical value for a confidence level.
func zOf(conf float64) float64 { return math.Sqrt2 * math.Erfinv(conf) }

// checker applies the correctness checks to every answer of a run.
type checker struct {
	attempted, failed int
	reasons           map[string]int
	examples          []string
	// nominal coverage of non-exact AVG answers over base regions
	ciAnswers, ciCovered int
	confidence           float64
	// maxZ is the largest sampled AVG error seen, in standard errors.
	maxZ float64
}

func newChecker() *checker { return &checker{reasons: make(map[string]int)} }

func (c *checker) fail(reason, detail string) {
	c.failed++
	c.reasons[reason]++
	if len(c.examples) < 5 {
		c.examples = append(c.examples, reason+": "+detail)
	}
}

// query checks one answer of a base-region statement against the oracle,
// and the stream properties every statement must have. Streamed-region
// statements get only the stream properties here; checkStreamed pins
// their values against the ack log.
func (c *checker) query(r *queryResult) {
	c.attempted++
	st := r.st
	switch {
	case r.err != nil:
		c.fail("transport", r.err.Error())
		return
	case r.status/100 != 2:
		c.fail(fmt.Sprintf("http_%d", r.status), st.text)
		return
	case r.done.IsZero():
		c.fail("no_done_line", st.text)
		return
	case strings.HasPrefix(r.last.Sampler, "error"):
		c.fail("engine_error", r.last.Sampler)
		return
	case r.last.Degraded:
		c.fail("degraded", st.text)
		return
	case r.last.Samples > r.last.Population:
		c.fail("samples_gt_population", fmt.Sprintf("%d > %d: %s", r.last.Samples, r.last.Population, st.text))
		return
	}
	if st.streamed {
		return
	}
	if r.last.Population != st.truthN {
		c.fail("population", fmt.Sprintf("got %d want %d: %s", r.last.Population, st.truthN, st.text))
		return
	}
	if st.count {
		if r.last.Value != float64(st.truthN) {
			c.fail("count_value", fmt.Sprintf("got %v want %d: %s", r.last.Value, st.truthN, st.text))
		}
		return
	}
	c.checkAvg(r.last, st.truthAvg, st.truthSD, st.text, true)
}

// checkAvg fails an AVG answer that misses the truth by more than wideZ
// standard errors of a uniform sample of its size from rows whose
// altitude has standard deviation sd; exact answers must match to
// rounding. Nominal coverage is tallied when tally is set.
func (c *checker) checkAvg(s snap, truth, sd float64, text string, tally bool) {
	if s.Population == 0 {
		return
	}
	diff := math.Abs(s.Value - truth)
	tol := 1e-9 * math.Max(1, math.Abs(truth))
	if s.Exact {
		if diff > tol {
			c.fail("exact_value", fmt.Sprintf("got %v want %v: %s", s.Value, truth, text))
		}
		return
	}
	if s.Unbounded {
		c.fail("unbounded_final_ci", text)
		return
	}
	n, pop := float64(s.Samples), float64(s.Population)
	se := 0.0
	if n > 0 && pop > 1 {
		se = sd / math.Sqrt(n) * math.Sqrt(math.Max(0, (pop-n)/(pop-1)))
	}
	if se > 0 {
		c.maxZ = max(c.maxZ, diff/se)
	}
	if diff > wideZ*se+tol {
		c.fail("gross_error", fmt.Sprintf("|%v-%v| > %.2f x standard error %v (n=%d of %d): %s", s.Value, truth, wideZ, se, s.Samples, s.Population, text))
		return
	}
	if tally {
		c.confidence = s.Confidence
		c.ciAnswers++
		if diff <= s.HalfWidth {
			c.ciCovered++
		}
	}
}

// coverageBound is the lowest nominal coverage a correct run shows over n
// answers: the nominal level, less 3 points of optional-stopping slack
// (the stream stops as soon as its own CI meets the target), less a
// binomial deviation at one-sided alpha = 1e-6 (z = 4.75).
func coverageBound(conf float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return conf - 0.03 - 4.75*math.Sqrt(conf*(1-conf)/float64(n))
}

// ackLog is the producer's record of every POST /ingest.
type ackLog struct {
	base    int // records acknowledged before this phase
	batches []ingestResult
}

// sentBefore returns how many records the producer had sent (request
// started) before t, counting earlier phases.
func (a *ackLog) sentBefore(t time.Time) int {
	n := a.base
	for _, b := range a.batches {
		if b.sent.Before(t) {
			n += b.b.n
		}
	}
	return n
}

// acked returns the records acknowledged with 2xx, counting earlier phases.
func (a *ackLog) acked() int {
	n := a.base
	for _, b := range a.batches {
		if b.err == nil && b.status/100 == 2 {
			n += b.accepted
		}
	}
	return n
}

// checkIngest counts each POST as an attempted operation and fails
// non-2xx responses and short accepts.
func (c *checker) checkIngest(a *ackLog) {
	for _, b := range a.batches {
		c.attempted++
		switch {
		case b.err != nil:
			c.fail("ingest_transport", b.err.Error())
		case b.status/100 != 2:
			c.fail(fmt.Sprintf("ingest_http_%d", b.status), fmt.Sprintf("batch %d", b.b.seq))
		case b.accepted != b.b.n:
			c.fail("ingest_short_accept", fmt.Sprintf("batch %d accepted %d of %d", b.b.seq, b.accepted, b.b.n))
		}
	}
}

// checkStreamed pins streamed-region answers with the ack log: an exact
// COUNT never exceeds the records sent before its answer, never falls
// below a COUNT that finished before it was sent, and a windowed answer's
// population is bounded the same way; windowed AVGs stay within the
// generated altitude range (widened by their CI).
func (c *checker) checkStreamed(rs []*queryResult, a *ackLog) {
	var counts []*queryResult
	for _, r := range rs {
		if !r.st.streamed || !r.ok() {
			continue
		}
		s, st := r.last, r.st
		if s.Population > a.sentBefore(r.done) {
			c.fail("streamed_population_gt_sent", fmt.Sprintf("%d > %d: %s", s.Population, a.sentBefore(r.done), st.text))
			continue
		}
		switch {
		case st.windowed && !s.Windowed:
			c.fail("window_not_applied", st.text)
		case st.count && s.Value != float64(s.Population):
			c.fail("count_value", fmt.Sprintf("value %v population %d: %s", s.Value, s.Population, st.text))
		case !st.count && s.Population > 0 && !s.Exact && !s.Unbounded:
			slack := s.HalfWidth * wideZ / zOf(s.Confidence)
			if s.Value < streamAltRange[0]-slack || s.Value > streamAltRange[1]+slack {
				c.fail("streamed_avg_out_of_range", fmt.Sprintf("%v: %s", s.Value, st.text))
			}
		}
		if st.visible {
			counts = append(counts, r)
		}
	}
	for _, r := range counts {
		floor := a.base
		for _, p := range counts {
			if p.done.Before(r.sent) && p.last.Population > floor {
				floor = p.last.Population
			}
		}
		if r.last.Population < floor {
			c.fail("streamed_count_regressed", fmt.Sprintf("%d < %d", r.last.Population, floor))
		}
	}
}

// visibility returns, per acknowledged batch, the time from its ack to
// the answer of the first streamed COUNT sent after the ack that counts
// all of its records. Drains make records visible in acceptance order, so
// a count reaching the batch's cumulative total means the batch is in.
func visibility(rs []*queryResult, a *ackLog) []float64 {
	var counts []*queryResult
	for _, r := range rs {
		if r.st.visible && r.ok() {
			counts = append(counts, r)
		}
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].sent.Before(counts[j].sent) })
	var out []float64
	total := a.base
	for _, b := range a.batches {
		if b.err != nil || b.status/100 != 2 {
			continue
		}
		total += b.accepted
		for _, r := range counts {
			if !r.sent.Before(b.ack) && r.last.Population >= total {
				out = append(out, ms(r.done.Sub(b.ack)))
				break
			}
		}
	}
	return out
}
