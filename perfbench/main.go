// Command perfbench is STORM's end-to-end and per-layer benchmark. It
// runs one seeded workload against the real HTTP surface — package
// server on a loopback socket over an engine with the stormd index
// configuration, and for the cluster workload TCP shard hosts — checks
// every answer against an exact oracle, and prints every metric.
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the same seeded inputs with spans around its calls into each
// layer and reports the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Progress and the human-readable report go to standard
// error. See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness or validity verdict.
type check struct {
	name   string
	pass   bool
	detail string
}

// report is a run's outcome.
type report struct {
	metrics   map[string]metric
	order     []string
	notes     map[string]string // per-metric annotation printed beside it
	checks    []check
	attempted int
	failed    int
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), notes: make(map[string]string)}
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) check(name string, pass bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, pass, fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.pass {
			return false
		}
	}
	return true
}

// print writes the human-readable report to stderr and the result line
// to stdout.
func (r *report) print(workload string, trace bool) error {
	logf("== %s (trace=%v) ==", workload, trace)
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("metric %-38s %14.4f %s", name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += "   " + n
		}
		logf("%s", line)
	}
	for _, c := range r.checks {
		verdict := "PASS"
		if !c.pass {
			verdict = "FAIL"
		}
		logf("check  %-28s %s  %s", c.name, verdict, c.detail)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: explore, cluster or ingest_mix")
	seed := flag.Int64("seed", 1, "seed for the dataset, statements and producer records")
	seconds := flag.Int("seconds", 10, "measured seconds of traffic")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("perfbench: want --workload explore|cluster|ingest_mix, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(w, *seed, float64(*seconds))
	} else {
		rep, err = runEndToEnd(w, *seed, float64(*seconds))
	}
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	if err := rep.print(w.name, *trace == 1); err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
}

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up serves the traffic.
const setupReps = 3

// setUpTimed sets the system up setupReps times and returns the last
// one with the median set-up time.
func setUpTimed(w workload, seed int64) (*sut, float64, error) {
	var times []float64
	var s *sut
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		s, err = setUp(w, seed, nil, span{})
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	logf("setup: %v s", times)
	return s, median(times), nil
}

// liveHeapMB forces a GC and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// traffic is everything the client saw during a workload's phases.
type traffic struct {
	rounds []round
	tail   []*queryResult // ingest tail phase and final visibility polls
	ack    ackLog
	late   time.Duration
}

// round is one open-loop stretch followed by one closed-loop stretch and
// a run of the host probe. traced marks rounds whose open-loop answers
// were recorded as spans.
type round struct {
	open, closed []*queryResult
	closedFor    time.Duration
	probe        time.Duration
	traced       bool
}

func (t *traffic) open() []*queryResult {
	var out []*queryResult
	for _, r := range t.rounds {
		out = append(out, r.open...)
	}
	return out
}

func (t *traffic) all() []*queryResult {
	var out []*queryResult
	for _, r := range t.rounds {
		out = append(append(out, r.open...), r.closed...)
	}
	return append(out, t.tail...)
}

// A run's query traffic alternates open and closed loop in rounds, so
// the host's slow and fast stretches spread over both. Each stretch
// deals whole decks, so the open loop offers, and the closed loop
// measures throughput on, the same mix in every round; query_qps.adj
// pools every closed-loop answer over the closed loop's whole time.
const (
	openShare   = 0.75 // open loop, all rounds together, as a share of --seconds
	closedDecks = 2    // decks each closed-loop stretch sends
	tailShare   = 0.1  // ingest-only tail of workloads without ingest traffic
	minRounds   = 4
)

// drive runs a workload's measured phases against s: rounds of one
// open-loop deck then closedDecks closed-loop decks, and the ingest traffic
// (throughout for ingest_mix, an ingest-only tail otherwise); then it
// polls until every acknowledged record is visible. Each round ends with
// a run of the host probe. With a tracer, every other round records its
// answers as spans, so traced and untraced rounds interleave.
func drive(s *sut, w workload, sts *statements, seed int64, seconds float64, tr *tracer, probe *hostProbe) *traffic {
	conns := make([]*conn, 2)
	for i := range conns {
		conns[i] = newConn(s.addr)
		defer conns[i].close()
	}
	t := &traffic{}
	total := time.Duration(seconds * float64(time.Second))
	deck := sts.deckSize()
	rounds := max(minRounds, int(math.Round(seconds*openShare*w.queryRate/float64(deck))))
	qconns := conns[:w.queryConns]
	queries := func() {
		for i := 0; i < rounds; i++ {
			r := round{traced: tr != nil && i%2 == 1}
			var rtr *tracer
			if r.traced {
				rtr = tr
			}
			var late time.Duration
			r.open, late = openLoop(qconns, sts.next, w.queryRate, deck, rtr)
			r.closed, r.closedFor = closedLoop(qconns, sts.next, closedDecks*deck)
			r.probe = probe.run()
			t.rounds = append(t.rounds, r)
			t.late = max(t.late, late)
		}
	}
	visible := sts.visible
	if w.ingestRate > 0 {
		// The producer runs until the query rounds end; batches for
		// twice the nominal run are generated up front.
		every := batchInterval(w.ingestRate)
		batches := newBatches(seed, int(2*total/every), every)
		stop := make(chan struct{})
		prodDone := make(chan time.Duration, 1)
		start := time.Now()
		go func() {
			var late time.Duration
			t.ack.batches, late = produce(conns[1], batches, start, every, stop)
			prodDone <- late
		}()
		queries()
		close(stop)
		t.late = max(t.late, <-prodDone)
	} else {
		queries()
		tailFor := time.Duration(float64(total) * tailShare)
		every := batchInterval(w.tailRate)
		batches := newBatches(seed, int(tailFor/every), every)
		prodDone := make(chan time.Duration, 1)
		go func() {
			var late time.Duration
			t.ack.batches, late = produce(conns[1], batches, time.Now(), every, nil)
			prodDone <- late
		}()
		// Visibility COUNTs ride the query connection at 50/s.
		tail, late := openLoop(conns[:1], func() *stmt { return visible }, 50, int(50*tailFor.Seconds()), nil)
		t.tail = tail
		t.late = max(t.late, late, <-prodDone)
	}
	t.tail = append(t.tail, pollVisible(conns[0], visible, t.ack.acked(), 5*time.Second)...)
	return t
}

// latencies returns end minus scheduled send time in ms for every
// completed answer to a base-region statement. Streamed-region statements
// are the ingest_mix visibility probes; they feed ingest_visible_ms.
func latencies(rs []*queryResult, end func(*queryResult) time.Time) []float64 {
	var out []float64
	for _, r := range rs {
		if r.ok() && !r.st.streamed && !end(r).IsZero() {
			out = append(out, ms(end(r).Sub(r.due)))
		}
	}
	return out
}

// runEndToEnd is the untraced run: it reports the end-to-end metrics.
func runEndToEnd(w workload, seed int64, seconds float64) (*report, error) {
	rep := newReport()
	s, setupS, err := setUpTimed(w, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.set("setup_s", setupS, "s")
	rep.set("mem_mb", liveHeapMB(), "MB")

	orc, err := newOracle(s.ds)
	if err != nil {
		return nil, err
	}
	sts := newStatements(w, seed, orc)
	orc.solve(sts.pool)
	chk := newChecker()

	for _, r := range warmUp(s, w, sts) {
		chk.query(r)
	}
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	t := drive(s, w, sts, seed, seconds, nil, probe)
	all := t.all()
	for _, r := range all {
		chk.query(r)
	}
	chk.checkStreamed(all, &t.ack)
	chk.checkIngest(&t.ack)

	fillEndToEnd(rep, t, all)
	addChecks(rep, chk, t, w)
	return rep, nil
}

// warmUp sends the plain AVG variants of every cell once, back to back
// on the workload's query connections, so first-touch RS-tree buffers
// and the buffer pool are filled before timing starts. The answers are
// checked like any other.
func warmUp(s *sut, w workload, sts *statements) []*queryResult {
	conns := make([]*conn, w.queryConns)
	for i := range conns {
		conns[i] = newConn(s.addr)
		defer conns[i].close()
	}
	var warm []*stmt
	for _, st := range sts.pool {
		if st.id%variantsPerCell < len(relErrs) {
			warm = append(warm, st)
		}
	}
	i := 0
	rs, _ := closedLoop(conns, func() *stmt {
		i++
		return warm[i-1]
	}, len(warm))
	return rs
}

// fillEndToEnd derives the end-to-end metrics from a run's traffic.
// Latency medians pool every open-loop answer to a base-region statement
// (or every batch); throughput pools the rounds' closed-loop decks. The
// CPU-bound ones are reported adjusted to the quiet reference host's
// speed (.adj: divided by the run's host factor, throughput multiplied),
// with the raw value beside them in the report. Tail percentiles are
// per-layer metrics of the traced run (see tails): on a shared 2-vCPU
// host they swing by more than any bound a regression gate could use.
func fillEndToEnd(rep *report, t *traffic, all []*queryResult) {
	f := hostFactor(t)
	open := t.open()
	first := median(latencies(open, firstCI))
	done := latencies(open, doneAt)
	completed, closedFor := 0, time.Duration(0)
	for i, r := range t.rounds {
		n := 0
		for _, q := range r.closed {
			if q.ok() {
				n++
			}
		}
		completed += n
		closedFor += r.closedFor
		logf("round %d: open first_ci p50 %.3f ms, done p50 %.3f ms; closed loop %.1f q/s; host probe %.3f ms",
			i, median(latencies(r.open, firstCI)), median(latencies(r.open, doneAt)), float64(n)/r.closedFor.Seconds(), ms(r.probe))
	}
	logf("host factor %.4f: median host probe %.3f ms over %d rounds, %.0f ms on the quiet reference host", f, f*probeRefMS, len(t.rounds), probeRefMS)
	qps := float64(completed) / closedFor.Seconds()
	acks := ackLatencies(t)
	ack := median(acks)
	rep.set("query_first_ci_ms.p50.adj", first/f, "ms")
	rep.set("query_done_ms.p50.adj", median(done)/f, "ms")
	rep.set("query_qps.adj", qps*f, "1/s")
	rep.set("ingest_ack_ms.p50", ack, "ms")
	vis := visibility(all, &t.ack)
	rep.set("ingest_visible_ms.p50", median(vis), "ms")
	rep.set("ingest_visible_ms.p95", quantile(vis, 0.95), "ms")
	rep.notes["query_first_ci_ms.p50.adj"] = fmt.Sprintf("(raw %.4f ms)", first)
	rep.notes["query_done_ms.p50.adj"] = fmt.Sprintf("(raw %.4f ms; n=%d open-loop answers)", median(done), len(done))
	rep.notes["query_qps.adj"] = fmt.Sprintf("(raw %.4f 1/s; %d closed-loop decks, n=%d answers in %.1f s)", qps, closedDecks*len(t.rounds), completed, closedFor.Seconds())
	rep.notes["ingest_ack_ms.p50"] = fmt.Sprintf("(n=%d batches)", len(acks))
	rep.notes["ingest_visible_ms.p95"] = fmt.Sprintf("(n=%d batches)", len(vis))
}

func firstCI(r *queryResult) time.Time { return r.firstCI }
func doneAt(r *queryResult) time.Time  { return r.done }

// ackLatencies returns every acknowledged batch's latency from its
// scheduled send time, in ms.
func ackLatencies(t *traffic) []float64 {
	var acks []float64
	for _, b := range t.ack.batches {
		if b.err == nil && b.status/100 == 2 {
			acks = append(acks, ms(b.ack.Sub(b.due)))
		}
	}
	return acks
}

// tails reports the tail percentiles of a run's traffic.
func tails(rep *report, t *traffic) {
	open := t.open()
	rep.set("tail.query_first_ci_ms.p99", quantile(latencies(open, firstCI), 0.99), "ms")
	rep.set("tail.query_done_ms.p99", quantile(latencies(open, doneAt), 0.99), "ms")
	rep.set("tail.ingest_ack_ms.p95", quantile(ackLatencies(t), 0.95), "ms")
}

// addChecks turns the checker's tallies into the run's verdicts.
func addChecks(rep *report, chk *checker, t *traffic, w workload) {
	rep.attempted, rep.failed = chk.attempted, chk.failed
	var reasons []string
	for k, v := range chk.reasons {
		reasons = append(reasons, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(reasons)
	detail := fmt.Sprintf("%d attempted, %d failed (fail_rate %.5f); largest sampled AVG error %.2f standard errors",
		chk.attempted, chk.failed, ratio(float64(chk.failed), float64(chk.attempted)), chk.maxZ)
	if len(reasons) > 0 {
		detail += "; " + strings.Join(reasons, " ") + "; e.g. " + strings.Join(chk.examples, " | ")
	}
	rep.check("answers_and_acks", chk.failed == 0, "%s", detail)
	cov := ratio(float64(chk.ciCovered), float64(chk.ciAnswers))
	bound := coverageBound(chk.confidence, chk.ciAnswers)
	rep.check("ci_nominal_coverage", chk.ciAnswers > 0 && cov >= bound,
		"%d/%d = %.4f of non-exact AVG answers inside their %.0f%% CI; lower bound %.4f", chk.ciCovered, chk.ciAnswers, cov, 100*chk.confidence, bound)
	final := -1
	if n := len(t.tail); n > 0 && t.tail[n-1].ok() {
		final = t.tail[n-1].last.Population
	}
	rep.check("ingest_all_visible", final == t.ack.acked(), "final streamed COUNT %d, acknowledged records %d", final, t.ack.acked())
	rep.check("loadgen_on_time", t.late < time.Second, "generator at most %.3f ms late", ms(t.late))
	logf("connections: 2 (queries on %d, the producer on the other when it runs; nproc %d)", w.queryConns, runtime.NumCPU())
}
