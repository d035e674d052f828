package sampling_test

import (
	"fmt"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// chunkEntries builds a uniform point set over [0,100]^3.
func chunkEntries(n int, seed int64) []data.Entry {
	rng := stats.NewRNG(seed)
	out := make([]data.Entry, n)
	for i := range out {
		out[i] = data.Entry{
			ID:  data.ID(i),
			Pos: geo.Vec{rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)},
		}
	}
	return out
}

var chunkQuery = geo.NewRect(geo.Vec{25, 25, 0}, geo.Vec{70, 70, 100})

var modes = []sampling.Mode{sampling.WithoutReplacement, sampling.WithReplacement}

// coldTree bulk-loads entries over a fresh small-pool device, so every
// chunk pattern starts from the same cold cache and LRU evictions make
// the device stats sensitive to the exact charge sequence.
func coldTree(entries []data.Entry) (*rtree.Tree, *iosim.Device) {
	dev := iosim.NewDevice(32, iosim.DefaultCostModel())
	tr := rtree.MustNew(rtree.Config{Fanout: 16, Device: dev})
	tr.BulkLoad(entries)
	dev.DropCache()
	dev.ResetStats()
	return tr, dev
}

// The BatchEquivalence tests pin the sampling contract for each baseline:
// the stream and its device charges are the same whether pulled one sample
// at a time (sampling.Next) or in any mix of chunk sizes.

func TestQueryFirstBatchEquivalence(t *testing.T) {
	entries := chunkEntries(8000, 3)
	for _, mode := range modes {
		samplingtest.CheckChunkInvariance(t, fmt.Sprintf("QueryFirst/%v", mode), 2000, func() (sampling.Sampler, *iosim.Device) {
			tr, dev := coldTree(entries)
			return sampling.NewQueryFirst(tr, chunkQuery, mode, stats.NewRNG(9)), dev
		})
	}
}

func TestSampleFirstBatchEquivalence(t *testing.T) {
	ds := data.NewDataset("chunk-test")
	for _, e := range chunkEntries(8000, 5) {
		ds.AppendFast(e.Pos)
	}
	for _, mode := range modes {
		samplingtest.CheckChunkInvariance(t, fmt.Sprintf("SampleFirst/%v", mode), 1500, func() (sampling.Sampler, *iosim.Device) {
			dev := iosim.NewDevice(64, iosim.DefaultCostModel())
			return sampling.NewSampleFirst(ds, chunkQuery, mode, stats.NewRNG(9), dev, 64), dev
		})
	}
}

func TestRandomPathBatchEquivalence(t *testing.T) {
	entries := chunkEntries(8000, 7)
	for _, mode := range modes {
		samplingtest.CheckChunkInvariance(t, fmt.Sprintf("RandomPath/%v", mode), 1500, func() (sampling.Sampler, *iosim.Device) {
			tr, dev := coldTree(entries)
			return sampling.NewRandomPath(tr, chunkQuery, mode, stats.NewRNG(13)), dev
		})
	}
}

// TestBatchedChargesMatchSerial covers engine-style attribution: charges
// routed through a per-query iosim.Counter into the shared device must
// leave the device exactly as one-sample pulls do, for any chunking.
func TestBatchedChargesMatchSerial(t *testing.T) {
	entries := chunkEntries(8000, 11)
	samplingtest.CheckChunkInvariance(t, "RandomPath via Counter", 1000, func() (sampling.Sampler, *iosim.Device) {
		tr, dev := coldTree(entries)
		s := sampling.NewRandomPath(tr, chunkQuery, sampling.WithoutReplacement, stats.NewRNG(13))
		s.AttributeIO(iosim.NewCounter(dev))
		return s, dev
	})
}

// columns is a minimal pred.ColumnSource.
type columns map[string][]float64

func (c columns) NumericColumn(name string) ([]float64, error) {
	if col, ok := c[name]; ok {
		return col, nil
	}
	return nil, fmt.Errorf("no column %q", name)
}

// oneIn compiles a predicate that exactly one record in every m passes.
func oneIn(t *testing.T, n, m int) *pred.Compiled {
	t.Helper()
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i % m)
	}
	c, err := pred.Normalize([]pred.Term{{Attr: "k", Lo: 0, Hi: 0}}).Compile(columns{"k": col})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFilteredChunkInvariance: MaxAttempts counts consecutive rejections
// since the last accepted sample, so the point where a 1-in-40 predicate
// under a 64-attempt budget ends the stream is a property of the stream,
// not of the pull pattern.
func TestFilteredChunkInvariance(t *testing.T) {
	entries := chunkEntries(8000, 17)
	c := oneIn(t, len(entries), 40)
	mk := func() (sampling.Sampler, *iosim.Device) {
		tr, dev := coldTree(entries)
		f := sampling.NewFiltered(sampling.NewRandomPath(tr, chunkQuery, sampling.WithReplacement, stats.NewRNG(21)), c)
		f.MaxAttempts = 64
		return f, dev
	}
	want := samplingtest.CheckChunkInvariance(t, "Filtered", 0, mk)
	for _, e := range want {
		if !c.Match(e.ID) {
			t.Fatalf("sample %d fails the predicate", e.ID)
		}
	}
	// The inner stream is infinite, so the end must be the attempt
	// budget, and it is sticky.
	s, _ := mk()
	f := s.(*sampling.Filtered)
	samplingtest.Drain(f, []int{7}, 0)
	var buf [4]data.Entry
	if n := f.NextBatch(buf[:], len(buf)); n != 0 {
		t.Fatalf("exhausted stream yielded %d more samples", n)
	}
	if st := f.SamplerStats(); st.Draws < 64 {
		t.Fatalf("stream ended after %d inner draws, before the 64-attempt budget", st.Draws)
	}
}

// TestFilteredStats: the wrapper's SamplerStats keep the inner sampler's
// counters (Draws are inner draws) and add the predicate rejections.
func TestFilteredStats(t *testing.T) {
	entries := chunkEntries(8000, 19)
	tr, _ := coldTree(entries)
	c := oneIn(t, len(entries), 4)
	inner := sampling.NewRandomPath(tr, chunkQuery, sampling.WithoutReplacement, stats.NewRNG(23))
	f := sampling.NewFiltered(inner, c)
	got := samplingtest.Drain(f, []int{50}, 300)
	if len(got) != 300 || f.Accepted() != 300 {
		t.Fatalf("drained %d, accepted %d, want 300", len(got), f.Accepted())
	}
	in, st := inner.SamplerStats(), f.SamplerStats()
	if in.Rejects == 0 {
		t.Fatal("fixture should make the inner walks reject some descents")
	}
	predRejects := in.Draws - f.Accepted()
	if st.Draws != in.Draws || st.Rejects != in.Rejects+predRejects || st.Pruned != in.Pruned {
		t.Fatalf("merged stats %+v, inner %+v, predicate rejects %d", st, in, predRejects)
	}
	if predRejects == 0 {
		t.Fatal("a 1-in-4 predicate should reject some draws")
	}
}
