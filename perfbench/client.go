package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// snap is the part of an NDJSON snapshot line the benchmark reads.
type snap struct {
	Value       float64 `json:"value"`
	HalfWidth   float64 `json:"half_width"`
	Confidence  float64 `json:"confidence"`
	Samples     int     `json:"samples"`
	Population  int     `json:"population"`
	Exact       bool    `json:"exact"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Sampler     string  `json:"sampler"`
	IOReads     uint64  `json:"io_reads"`
	IOHits      uint64  `json:"io_hits"`
	Degraded    bool    `json:"degraded"`
	RejectRatio float64 `json:"reject_ratio"`
	Unbounded   bool    `json:"unbounded"`
	Windowed    bool    `json:"windowed"`
	Done        bool    `json:"done"`
}

// queryResult is one POST /query as the client saw it.
type queryResult struct {
	st      *stmt
	due     time.Time // scheduled send time (open loop) or send time (closed loop)
	sent    time.Time
	firstCI time.Time // first line with a bounded CI; zero if none
	done    time.Time // the done:true line; zero if none
	status  int
	lines   int
	bytes   int
	first   snap
	last    snap
	err     error
}

// ok reports whether the stream completed with a done line.
func (r *queryResult) ok() bool { return r.err == nil && r.status/100 == 2 && !r.done.IsZero() }

// ingestResult is one POST /ingest as the producer saw it.
type ingestResult struct {
	b        *batch
	due      time.Time
	sent     time.Time
	ack      time.Time
	status   int
	accepted int
	err      error
}

// conn is one client connection: its transport keeps a single keep-alive
// TCP connection to the server.
type conn struct {
	c    *http.Client
	base string
}

func newConn(addr string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr}, base: "http://" + addr}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

var (
	doneMark      = []byte(`"done":true`)
	unboundedMark = []byte(`"unbounded":true`)
)

// query sends one statement and reads its NDJSON stream to the end. Only
// the first line, the first bounded-CI line and the done line are
// decoded, so the client spends little CPU beside the server.
func (c *conn) query(st *stmt, due time.Time) *queryResult {
	r := &queryResult{st: st, due: due, sent: time.Now()}
	resp, err := c.c.Post(c.base+"/query", "application/json", bytes.NewReader(st.body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return r
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			now := time.Now()
			r.lines++
			r.bytes += len(line)
			if r.lines == 1 {
				if jerr := json.Unmarshal(line, &r.first); jerr != nil {
					r.err = fmt.Errorf("decoding first line: %w", jerr)
					return r
				}
			}
			if r.firstCI.IsZero() && !bytes.Contains(line, unboundedMark) {
				r.firstCI = now
			}
			if bytes.Contains(line, doneMark) {
				r.done = now
				if jerr := json.Unmarshal(line, &r.last); jerr != nil {
					r.err = fmt.Errorf("decoding done line: %w", jerr)
					return r
				}
			}
		}
		if errors.Is(err, io.EOF) {
			return r
		}
		if err != nil {
			r.err = err
			return r
		}
	}
}

// ingest POSTs one producer batch.
func (c *conn) ingest(b *batch, due time.Time) ingestResult {
	r := ingestResult{b: b, due: due, sent: time.Now()}
	resp, err := c.c.Post(c.base+"/ingest/osm", "application/x-ndjson", bytes.NewReader(b.body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	var out struct {
		Accepted int `json:"accepted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	r.ack = time.Now()
	r.status = resp.StatusCode
	r.accepted = out.Accepted
	if err != nil {
		r.err = fmt.Errorf("decoding ingest response: %w", err)
	}
	return r
}
