package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/ingest"
	"storm/internal/lstree"
	"storm/internal/query"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
	"storm/internal/wire"
)

// layerMetric is one per-layer metric with the end-to-end metric it is
// expected to move and the workloads whose traffic exercises its layer.
// Every traced run reports every one; on other workloads the layer is
// measured by the same direct calls, without that workload's traffic.
type layerMetric struct {
	name, unit, better, moves, on string
}

var layerMetrics = []layerMetric{
	{"gen.osm_s", "s", "lower", "setup_s (control: index work must not move it)", "all"},
	{"rstree.build_s", "s", "lower", "setup_s", "all"},
	{"lstree.build_s", "s", "lower", "setup_s", "explore, ingest_mix"},
	{"distr.build_s", "s", "lower", "setup_s", "cluster"},
	{"server.serve_ms.p50", "ms", "lower", "query_done_ms.p50", "explore"},
	{"server.lines_per_query", "count", "lower", "query_done_ms.*", "explore, cluster"},
	{"server.bytes_per_query", "B", "lower", "query_done_ms.*", "explore, cluster"},
	{"server.first_line_lag_ms.p50", "ms", "lower", "query_first_ci_ms.*", "explore"},
	{"server.tail_ms.p50", "ms", "lower", "query_done_ms.*", "explore"},
	{"query.parse_us.p50", "us", "lower", "none (control)", "explore"},
	{"engine.plan_ms.p50", "ms", "lower", "query_first_ci_ms.*", "explore, cluster"},
	{"engine.first_snapshot_ms.p50", "ms", "lower", "query_first_ci_ms.*", "explore, cluster"},
	{"engine.estimate_ms.p50", "ms", "lower", "query_done_ms.*", "explore, cluster"},
	{"engine.samples_per_query", "count", "lower", "query_done_ms.*", "explore"},
	{"engine.wait_ms.p50", "ms", "lower", "query_first_ci_ms.*", "ingest_mix"},
	{"engine.insert_batch_us_per_record", "us", "lower", "ingest_visible_ms.*, query_done_ms.*", "ingest_mix"},
	{"rstree.sample_us_per_1k", "us", "lower", "query_done_ms.*", "explore"},
	{"lstree.sample_us_per_1k", "us", "lower", "query_done_ms.*", "explore"},
	{"rstree.buffer_regens_per_query", "count", "lower", "query_done_ms.*", "ingest_mix, explore"},
	{"sampling.reject_ratio", "ratio", "lower", "query_done_ms.*", "explore"},
	{"estimator.ns_per_sample", "ns", "lower", "query_done_ms.* (small)", "explore"},
	{"iosim.reads_per_query", "count", "lower", "query_done_ms.*", "explore"},
	{"iosim.hit_rate", "ratio", "higher", "query_done_ms.*", "explore"},
	{"distr.count_ms.p50", "ms", "lower", "query_first_ci_ms.*", "cluster"},
	{"distr.fetch_ms.p50", "ms", "lower", "query_done_ms.*", "cluster"},
	{"distr.messages_per_query", "count", "lower", "query_done_ms.*", "cluster"},
	{"distr.bytes_per_sample", "B", "lower", "query_done_ms.*", "cluster"},
	{"wire.codec_ns_per_frame", "ns", "lower", "query_done_ms.*", "cluster"},
	{"ingest.append_us_per_1k", "us", "lower", "ingest_ack_ms.*", "ingest_mix"},
	{"ingest.drain_busy_share", "ratio", "lower", "ingest_visible_ms.*, query_*", "ingest_mix"},
	{"ingest.pending_max", "count", "lower", "ingest_visible_ms.*, query_*", "ingest_mix"},
	{"go.alloc_bytes_per_query", "B", "lower", "query_done_ms.p99", "all"},
	{"go.gc_pause_ms", "ms", "lower", "query_done_ms.p99", "all"},
	{"loadgen.late_ms.max", "ms", "lower", "validity only: a late generator invalidates the run", "all"},
	{"trace.overhead_ratio", "ratio", "lower", "validity only: traced/untraced query_done_ms.p50", "all"},
	{"host.probe_ms.p50", "ms", "lower", "none: the host's speed, which the .adj metrics divide out", "all"},
	{"tail.query_first_ci_ms.p99", "ms", "lower", "the tail of query_first_ci_ms (ungated: too noisy on a shared host)", "all"},
	{"tail.query_done_ms.p99", "ms", "lower", "the tail of query_done_ms (ungated: too noisy on a shared host)", "all"},
	{"tail.ingest_ack_ms.p95", "ms", "lower", "the tail of ingest_ack_ms (ungated: too noisy on a shared host)", "all"},
}

// replayStatements is how many statements of the seeded stream the traced
// replay sends through each layer.
const replayStatements = 120

// probe holds the stand-alone structures the traced run calls layers on.
type probe struct {
	rs    *rstree.Index
	ls    *lstree.Index
	hosts []*wire.Server
	cl    *distr.Cluster
}

func (p *probe) close() {
	if p.cl != nil {
		p.cl.Close()
	}
	for _, h := range p.hosts {
		h.Close()
	}
}

// buildProbe times each layer's build on the workload's rows: the RS-tree
// and LS-tree the engine builds, and an 8-shard cluster on 2 TCP hosts.
func buildProbe(s *sut, w workload, seed int64, tr *tracer, root span) (*probe, error) {
	p := &probe{}
	var err error
	sp := tr.open("rstree.build", root, 0)
	p.rs, err = rstree.Build(s.ds.Entries(), rstree.Config{Seed: seed})
	tr.done(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open("lstree.build", root, 0)
	p.ls, err = lstree.Build(s.ds.Entries(), lstree.Config{Seed: seed, Attrs: s.ds})
	tr.done(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open("distr.hosts", root, 0)
	var addrs []string
	p.hosts, addrs, err = startHosts(w.records, seed, 2)
	tr.done(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open("distr.build", root, 0)
	p.cl, err = distr.BuildRemote(s.ds, distr.Config{Shards: 8, Seed: seed}, addrs)
	tr.done(sp)
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// rsPages counts the RS-tree's nodes, one simulated page each.
func rsPages(x *rstree.Index) int {
	var walk func(n *rtree.Node) int
	walk = func(n *rtree.Node) int {
		c := 1
		for _, ch := range n.Children() {
			c += walk(ch)
		}
		return c
	}
	return walk(x.Tree().Root())
}

// timingWriter is an http.ResponseWriter for in-process ServeHTTP calls
// that records when the first byte was written and counts lines.
type timingWriter struct {
	hdr   http.Header
	code  int
	buf   bytes.Buffer
	first time.Time
}

func (t *timingWriter) Header() http.Header {
	if t.hdr == nil {
		t.hdr = make(http.Header)
	}
	return t.hdr
}
func (t *timingWriter) WriteHeader(code int) { t.code = code }
func (t *timingWriter) Write(p []byte) (int, error) {
	if t.first.IsZero() {
		t.first = time.Now()
	}
	return t.buf.Write(p)
}
func (t *timingWriter) Flush() {}

// serveResult is one in-process ServeHTTP of a statement.
type serveResult struct {
	lag, tail    time.Duration
	lines, bytes int
	ok           bool
}

// serve runs st through Server.ServeHTTP in-process.
func serve(s *sut, st *stmt, tr *tracer, name string, parent span, op int64) serveResult {
	req, err := http.NewRequest("POST", "/query", bytes.NewReader(st.body))
	if err != nil {
		return serveResult{}
	}
	tw := &timingWriter{code: 200}
	sp := tr.open(name, parent, op)
	start := time.Now()
	s.srv.ServeHTTP(tw, req)
	end := time.Now()
	tr.doneAt(sp, end)
	out := serveResult{bytes: tw.buf.Len()}
	lines := strings.Split(strings.TrimSpace(tw.buf.String()), "\n")
	out.lines = len(lines)
	var first, last snap
	if tw.code/100 != 2 || json.Unmarshal([]byte(lines[0]), &first) != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil || !last.Done {
		return out
	}
	out.ok = true
	out.lag = tw.first.Sub(start) - time.Duration(first.ElapsedMS*float64(time.Millisecond))
	out.tail = end.Sub(start) - time.Duration(last.ElapsedMS*float64(time.Millisecond))
	return out
}

// replayTotals accumulates the replay's counters.
type replayTotals struct {
	avgQueries, samples            int
	ioReads, ioHits                uint64
	whereQueries                   int
	rejectSum                      float64
	serveLines, serveBytes, served int
	rsSampleUS, lsSampleUS         []float64
	estNS, estSamples              float64
	distrQueries                   int
	distrMsgs, distrBytes, distrSm uint64
	codecNS, codecFrames           float64
	lags, tails, waits             []float64
}

// engineOptions mirrors the server's translation of a parsed statement.
func engineOptions(q *query.Query) engine.Options {
	return engine.Options{
		Kind: q.Agg, Attr: q.Attr, QuantileP: q.QuantileP, Confidence: q.Confidence,
		TargetRelError: q.RelError, TimeBudget: q.Within, MaxSamples: q.Samples,
		Method: q.Method, Where: q.Where, Last: q.Last,
	}
}

// replayOne sends one statement through every layer's public calls.
func replayOne(s *sut, p *probe, st *stmt, op int64, seed int64, tr *tracer, tot *replayTotals) error {
	root := tr.open("replay.query", span{}, op)
	defer tr.done(root)

	sp := tr.open("query.parse", root, op)
	q, err := query.Parse(st.text)
	sp = tr.done(sp)
	if err != nil {
		return fmt.Errorf("parsing %q: %w", st.text, err)
	}
	rng := q.Range()

	sp = tr.open("engine.plan", root, op)
	if _, err := s.h.ExplainWhere(rng, q.Where, engine.PushdownAuto); err != nil {
		return fmt.Errorf("explaining %q: %w", st.text, err)
	}
	s.h.Count(rng)
	sp = tr.done(sp)

	sp = tr.open("engine.estimate", root, op)
	start := time.Now()
	ch, err := s.h.EstimateOnline(context.Background(), rng, engineOptions(q))
	if err != nil {
		return fmt.Errorf("estimating %q: %w", st.text, err)
	}
	var last engine.Snapshot
	firstSeen := false
	for snap := range ch {
		if !firstSeen {
			firstSeen = true
			tr.record("engine.first_snapshot", sp, op, start, time.Now())
		}
		last = snap
	}
	sp = tr.done(sp)

	sr := serve(s, st, tr, "server.serve", root, op)
	if sr.ok {
		tot.served++
		tot.serveLines += sr.lines
		tot.serveBytes += sr.bytes
		tot.lags = append(tot.lags, ms(sr.lag))
		tot.tails = append(tot.tails, ms(sr.tail))
	}
	if st.count || last.Samples == 0 {
		return nil
	}
	tot.avgQueries++
	tot.samples += last.Samples
	tot.ioReads += last.IO.Reads
	tot.ioHits += last.IO.Hits
	if st.hasWhere {
		tot.whereQueries++
		tot.rejectSum += last.RejectRatio
	}
	k := last.Samples
	rect := rng.Rect()

	sp = tr.open("rstree.sample", root, op)
	ents, err := s.h.Sample(rng, k, engine.MethodRSTree, sampling.WithoutReplacement, seed+op)
	sp = tr.done(sp)
	if err != nil {
		return fmt.Errorf("sampling %q: %w", st.text, err)
	}
	if len(ents) > 0 {
		tot.rsSampleUS = append(tot.rsSampleUS, float64(sp.dur().Microseconds())*1000/float64(len(ents)))
	}

	sp = tr.open("lstree.sample", root, op)
	lsBuf := make([]data.Entry, k)
	got := sampling.NextBatch(p.ls.Sampler(rect, stats.NewRNG(seed+op)), lsBuf, k)
	sp = tr.done(sp)
	if got > 0 {
		tot.lsSampleUS = append(tot.lsSampleUS, float64(sp.dur().Microseconds())*1000/float64(got))
	}

	if len(ents) > 0 {
		// No writes run during the replay, so the column is stable.
		alt, err := s.ds.NumericColumn("altitude")
		if err != nil {
			return err
		}
		sp = tr.open("estimator", root, op)
		est, err := estimator.New(estimator.Avg, 0.95, last.Population, true)
		if err != nil {
			return err
		}
		for i, e := range ents {
			est.Add(alt[e.ID])
			if (i+1)%64 == 0 {
				est.Snapshot()
			}
		}
		est.Snapshot()
		sp = tr.done(sp)
		tot.estNS += float64(sp.dur())
		tot.estSamples += float64(len(ents))
	}

	sp = tr.open("distr.count", root, op)
	if len(q.Where) > 0 {
		p.cl.CountWhere(rect, q.Where)
	} else {
		p.cl.Count(rect)
	}
	sp = tr.done(sp)
	before := p.cl.Net()
	var smp *distr.Sampler
	if len(q.Where) > 0 {
		smp = p.cl.SamplerWhere(rect, q.Where)
	} else {
		smp = p.cl.Sampler(rect)
	}
	buf := make([]data.Entry, 1024)
	want, pulled, size := min(k, 4096), 0, 16
	for pulled < want {
		n := min(size, want-pulled)
		fs := tr.open("distr.fetch", root, op)
		got := smp.NextBatch(buf, n)
		tr.done(fs)
		pulled += got
		if got < n {
			break
		}
		size = min(2*size, len(buf))
	}
	smp.Close()
	after := p.cl.Net()
	tot.distrQueries++
	tot.distrMsgs += after.Messages - before.Messages
	tot.distrBytes += (after.BytesSent - before.BytesSent) + (after.BytesRecv - before.BytesRecv)
	tot.distrSm += uint64(pulled)

	frame := &wire.Entries{Entries: ents[:min(32, len(ents))]}
	const reps = 64
	var fb []byte
	sp = tr.open("wire.codec", root, op)
	for i := 0; i < reps; i++ {
		fb = wire.AppendFrame(fb[:0], frame)
		if _, _, err := wire.DecodeFrame(fb); err != nil {
			sp = tr.done(sp)
			return fmt.Errorf("wire round trip: %w", err)
		}
	}
	sp = tr.done(sp)
	tot.codecNS += float64(sp.dur())
	tot.codecFrames += reps
	return nil
}

// timingSink wraps the handle's InsertBatch with a span per drained batch.
type timingSink struct {
	h   *engine.Handle
	tr  *tracer
	mu  sync.Mutex
	dur time.Duration
	n   int
}

func (t *timingSink) InsertBatch(rows []data.Row) []data.ID {
	sp := t.tr.open("engine.insert_batch", span{}, 0)
	ids := t.h.InsertBatch(rows)
	sp = t.tr.done(sp)
	t.mu.Lock()
	t.dur += sp.dur()
	t.n += len(rows)
	t.mu.Unlock()
	return ids
}

// writePhase appends producer batches through an ingest.Ingestor with a
// timing sink while statements replay through ServeHTTP beside it, so
// engine.wait_ms is the first-line lag queries see under writes.
func writePhase(s *sut, w workload, sts *statements, seed int64, dur time.Duration, seqBase int, tr *tracer, tot *replayTotals, rep *report) {
	rate := w.ingestRate
	if rate == 0 {
		rate = w.tailRate
	}
	every := batchInterval(rate)
	batches := newBatchesFrom(seed, int(dur/every), every, seqBase, true)
	sink := &timingSink{h: s.h, tr: tr}
	cfg := stormdIngest
	cfg.Name = "perfbench"
	in := ingest.New(sink, cfg)
	var appendDur time.Duration
	pendingMax := 0
	records := 0
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var p pacer
		for op := range run(&p, len(batches), start, every, nil, func(i int) *batch { return batches[i] }) {
			sp := tr.open("ingest.append", span{}, int64(op.v.seq))
			err := in.AppendBatch(op.v.rows)
			sp = tr.done(sp)
			if err != nil {
				logf("ingest probe: %v", err)
				continue
			}
			appendDur += sp.dur()
			records += len(op.v.rows)
			pendingMax = max(pendingMax, in.Pending())
		}
	}()
serving:
	for i := 0; ; i++ {
		select {
		case <-done:
			break serving
		default:
		}
		if sr := serve(s, sts.pool[i%len(sts.pool)], tr, "server.serve_under_writes", span{}, int64(i+1)); sr.ok {
			tot.waits = append(tot.waits, ms(sr.lag))
		}
	}
	in.Close()
	wall := time.Since(start)
	rep.set("ingest.append_us_per_1k", ratio(float64(appendDur.Microseconds())*1000, float64(records)), "us")
	rep.set("engine.insert_batch_us_per_record", ratio(float64(sink.dur.Microseconds()), float64(sink.n)), "us")
	rep.set("ingest.drain_busy_share", ratio(float64(sink.dur), float64(wall)), "ratio")
	rep.set("ingest.pending_max", float64(pendingMax), "count")
}

// nextSeq returns the producer sequence number after t's last batch, so
// a later phase's records carry later event times.
func nextSeq(t *traffic) int {
	next := 0
	for _, b := range t.ack.batches {
		next = max(next, b.b.seq+1)
	}
	return next
}

// metricsValue reads one counter from GET /metrics.
func metricsValue(addr, name string) (float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(bufio.NewReader(resp.Body)).Decode(&m); err != nil {
		return 0, err
	}
	v, _ := m[name].(float64)
	return v, nil
}

// runTraced is the traced run: the same seeded inputs, with spans around
// the benchmark's calls into each layer, reported as per-layer metrics.
func runTraced(w workload, seed int64, seconds float64) (*report, error) {
	rep := newReport()
	tr := newTracer()

	root := tr.open("setup", span{}, 0)
	s, err := setUp(w, seed, tr, root)
	if err != nil {
		return nil, err
	}
	defer s.close()
	p, err := buildProbe(s, w, seed, tr, root)
	tr.done(root)
	if err != nil {
		return nil, err
	}
	defer p.close()
	logf("sizes: %d records, RS-tree %d pages (fanout %d), buffer pool %d pages, %d shards on %d hosts",
		w.records, rsPages(p.rs), p.rs.Tree().Fanout(), w.poolPages, w.shards, w.hosts)

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

	// The workload's HTTP traffic, with every other round traced: the
	// ratio of traced to untraced rounds' query_done_ms.p50 is the
	// tracing overhead.
	regens0, err := metricsValue(s.addr, "storm.dataset.osm.buffer_regens")
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	t := drive(s, w, sts, seed, seconds, tr, probe)
	runtime.ReadMemStats(&m1)
	regens1, err := metricsValue(s.addr, "storm.dataset.osm.buffer_regens")
	if err != nil {
		return nil, err
	}
	all := t.all()
	for _, r := range all {
		chk.query(r)
	}
	chk.checkStreamed(all, &t.ack)
	chk.checkIngest(&t.ack)
	rep.set("go.alloc_bytes_per_query", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(all))), "B")
	rep.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	rep.set("rstree.buffer_regens_per_query", ratio(regens1-regens0, float64(len(all))), "count")
	doneP50 := func(traced bool) float64 {
		var rs []*queryResult
		for _, r := range t.rounds {
			if r.traced == traced {
				rs = append(rs, r.open...)
			}
		}
		return median(latencies(rs, doneAt))
	}
	overhead := ratio(doneP50(true), doneP50(false))
	rep.set("trace.overhead_ratio", overhead, "ratio")
	rep.set("loadgen.late_ms.max", ms(t.late), "ms")
	rep.set("host.probe_ms.p50", hostFactor(t)*probeRefMS, "ms")
	tails(rep, t)

	// In-process replay of the stream's first statements through every
	// layer, without writes.
	replay := newStatements(w, seed, orc)
	tot := &replayTotals{}
	for i := 0; i < replayStatements; i++ {
		if err := replayOne(s, p, replay.next(), int64(i+1), seed, tr, tot); err != nil {
			return nil, err
		}
	}
	writePhase(s, w, sts, seed, time.Duration(seconds*0.2*float64(time.Second)), nextSeq(t), tr, tot, rep)

	p50 := func(name string) float64 { return median(tr.durations(name)) }
	rep.set("gen.osm_s", tr.total("gen.osm").Seconds(), "s")
	rep.set("rstree.build_s", tr.total("rstree.build").Seconds(), "s")
	rep.set("lstree.build_s", tr.total("lstree.build").Seconds(), "s")
	rep.set("distr.build_s", tr.total("distr.build").Seconds(), "s")
	rep.set("server.serve_ms.p50", p50("server.serve"), "ms")
	rep.set("server.lines_per_query", ratio(float64(tot.serveLines), float64(tot.served)), "count")
	rep.set("server.bytes_per_query", ratio(float64(tot.serveBytes), float64(tot.served)), "B")
	rep.set("server.first_line_lag_ms.p50", median(tot.lags), "ms")
	rep.set("server.tail_ms.p50", median(tot.tails), "ms")
	rep.set("query.parse_us.p50", 1000*p50("query.parse"), "us")
	rep.set("engine.plan_ms.p50", p50("engine.plan"), "ms")
	rep.set("engine.first_snapshot_ms.p50", p50("engine.first_snapshot"), "ms")
	rep.set("engine.estimate_ms.p50", p50("engine.estimate"), "ms")
	rep.set("engine.samples_per_query", ratio(float64(tot.samples), float64(tot.avgQueries)), "count")
	rep.set("engine.wait_ms.p50", median(tot.waits), "ms")
	rep.set("rstree.sample_us_per_1k", median(tot.rsSampleUS), "us")
	rep.set("lstree.sample_us_per_1k", median(tot.lsSampleUS), "us")
	rep.set("sampling.reject_ratio", ratio(tot.rejectSum, float64(tot.whereQueries)), "ratio")
	rep.set("estimator.ns_per_sample", ratio(tot.estNS, tot.estSamples), "ns")
	rep.set("iosim.reads_per_query", ratio(float64(tot.ioReads), float64(tot.avgQueries)), "count")
	rep.set("iosim.hit_rate", ratio(float64(tot.ioHits), float64(tot.ioHits+tot.ioReads)), "ratio")
	rep.set("distr.count_ms.p50", p50("distr.count"), "ms")
	rep.set("distr.fetch_ms.p50", p50("distr.fetch"), "ms")
	rep.set("distr.messages_per_query", ratio(float64(tot.distrMsgs), float64(tot.distrQueries)), "count")
	rep.set("distr.bytes_per_sample", ratio(float64(tot.distrBytes), float64(tot.distrSm)), "B")
	rep.set("wire.codec_ns_per_frame", ratio(tot.codecNS, tot.codecFrames), "ns")

	// Order and tag the metrics as the table lists them.
	rep.order = rep.order[:0]
	for _, lm := range layerMetrics {
		if _, ok := rep.metrics[lm.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", lm.name)
		}
		rep.order = append(rep.order, lm.name)
		rep.notes[lm.name] = fmt.Sprintf("moves %s on %s", lm.moves, lm.on)
	}

	lts := tr.selfTimes()
	writeSelfTimes(os.Stderr, lts)
	logf("trace overhead (%s): query_done_ms.p50 %.3f ms in traced rounds vs %.3f ms in untraced rounds (ratio %.4f)",
		w.name, doneP50(true), doneP50(false), overhead)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeFile(path); err != nil {
		logf("writing spans: %v", err)
	} else {
		logf("spans written to %s", path)
	}
	addChecks(rep, chk, t, w)
	return rep, nil
}
