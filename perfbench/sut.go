package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/gen"
	"storm/internal/ingest"
	"storm/internal/server"
	"storm/internal/wire"
)

// stormdIngest is stormd's default POST /ingest buffer configuration.
var stormdIngest = ingest.Config{Shards: 8, FlushRecords: 4096, FlushInterval: 25 * time.Millisecond, MaxPending: 1 << 19}

// sut is the system under test: the generated dataset, the engine with
// its indexes (and shard hosts), and the HTTP server on a loopback port.
type sut struct {
	ds     *data.Dataset
	eng    *engine.Engine
	h      *engine.Handle
	srv    *server.Server
	http   *http.Server
	served chan error
	addr   string
	hosts  []*wire.Server
}

// startHosts starts n in-process shard hosts serving the OSM-like dataset
// over loopback TCP. Like stormd -role=shard processes, each host
// regenerates its own copy of the rows from the generator seed, so
// mirrored inserts append to host-private datasets.
func startHosts(records int, seed int64, n int) ([]*wire.Server, []string, error) {
	var hosts []*wire.Server
	var addrs []string
	for i := 0; i < n; i++ {
		h := distr.NewHost()
		h.AddDataset(gen.OSM(gen.OSMConfig{N: records, Seed: seed}))
		srv, err := wire.NewServer("127.0.0.1:0", h)
		if err != nil {
			for _, s := range hosts {
				s.Close()
			}
			return nil, nil, fmt.Errorf("starting shard host: %w", err)
		}
		hosts = append(hosts, srv)
		addrs = append(addrs, srv.Addr())
	}
	return hosts, addrs, nil
}

// setUp generates the dataset, builds the indexes (and the cluster's
// shard hosts) and starts serving; it returns once the server answers.
// Spans go to tr under root (both may be nil).
func setUp(w workload, seed int64, tr *tracer, root span) (*sut, error) {
	s := &sut{}
	sp := tr.open("gen.osm", root, 0)
	s.ds = gen.OSM(gen.OSMConfig{N: w.records, Seed: seed})
	tr.done(sp)
	var addrs []string
	if w.shards > 0 {
		sp = tr.open("distr.hosts", root, 0)
		var err error
		s.hosts, addrs, err = startHosts(w.records, seed, w.hosts)
		tr.done(sp)
		if err != nil {
			return nil, err
		}
	}
	s.eng = engine.New(engine.Config{Seed: seed, BufferPoolPages: w.poolPages})
	sp = tr.open("engine.register", root, 0)
	h, err := s.eng.Register(s.ds, engine.IndexOptions{LSTree: w.lstree, Shards: w.shards, ShardAddrs: addrs})
	tr.done(sp)
	if err != nil {
		s.close()
		return nil, err
	}
	s.h = h
	s.srv = server.New(s.eng, server.WithIngestConfig(stormdIngest))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.http = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	resp, err := http.Get("http://" + s.addr + "/healthz")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server not answering: %w", err)
	}
	resp.Body.Close()
	return s, nil
}

// close stops the server (waiting for it), the ingest drains, the
// cluster transports and the shard hosts.
func (s *sut) close() {
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.http.Shutdown(ctx); err != nil {
			s.http.Close()
		}
		cancel()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("server: %v", err)
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.h != nil {
		s.eng.Unregister(s.h.Name())
	}
	for _, h := range s.hosts {
		h.Close()
	}
}
