package distr_test

import (
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/sampling"
	"storm/internal/sampling/samplingtest"
)

// TestNextBatchMatchesNext checks the coordinator's stream does not depend
// on how the pulls are chunked — one sample at a time (sampling.Next) or in
// any mix of sizes — across shard counts, over the loopback transport and
// over real TCP shard hosts.
func TestNextBatchMatchesNext(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	for _, shards := range []int{1, 3, 8} {
		loop := samplingtest.CheckChunkInvariance(t, "loopback", 0, func() (sampling.Sampler, *iosim.Device) {
			return distrtest.Build(t, ds, distr.Config{Shards: shards, Seed: 5}).Sampler(q), nil
		})
		tcp := samplingtest.CheckChunkInvariance(t, "tcp", 0, func() (sampling.Sampler, *iosim.Device) {
			return distrtest.BuildTCP(t, ds, distr.Config{Shards: shards, Seed: 5}, 2).Sampler(q), nil
		})
		distrtest.SameEntries(t, loop, tcp, "loopback vs tcp")
	}
}

// TestNextBatchInterleavedWithNext alternates single-sample pulls
// (sampling.Next) and full batches on one coordinator sampler against a
// one-at-a-time twin.
func TestNextBatchInterleavedWithNext(t *testing.T) {
	ds := gen.Uniform(5000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	q := distrtest.Query()
	a := distrtest.Build(t, ds, distr.Config{Shards: 4, Seed: 9})
	b := distrtest.Build(t, ds, distr.Config{Shards: 4, Seed: 9})
	serial := samplingtest.Drain(a.Sampler(q), []int{1}, 0)
	s := b.Sampler(q)
	var mixed []data.Entry
	buf := make([]data.Entry, 64)
	for {
		e, ok := sampling.Next(s)
		if !ok {
			break
		}
		mixed = append(mixed, e)
		n := s.NextBatch(buf, 64)
		mixed = append(mixed, buf[:n]...)
		if n < 64 {
			break
		}
	}
	distrtest.SameEntries(t, serial, mixed, "interleaved")
}

// TestNextBatchFewerMessages checks the point of the batched protocol: one
// demand-sized request per shard per round, so one large pull sends far
// fewer messages than the same samples pulled one at a time.
func TestNextBatchFewerMessages(t *testing.T) {
	ds := gen.Uniform(20000, 3, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	q := distrtest.Query()
	serialC := distrtest.Build(t, ds, distr.Config{Shards: 8, Seed: 1})
	batchC := distrtest.Build(t, ds, distr.Config{Shards: 8, Seed: 1})

	s := serialC.Sampler(q)
	for i := 0; i < 4000; i++ {
		if _, ok := sampling.Next(s); !ok {
			break
		}
	}
	serialMsgs := serialC.Net().Messages

	b := batchC.Sampler(q)
	buf := make([]data.Entry, 4000)
	b.NextBatch(buf, 4000)
	batchMsgs := batchC.Net().Messages

	if batchMsgs >= serialMsgs {
		t.Fatalf("batched protocol sent %d messages, serial %d — expected fewer", batchMsgs, serialMsgs)
	}
}
