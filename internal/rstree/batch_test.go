package rstree

import (
	"sync"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/sampling"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// drawBatched reads n samples (or the whole stream if n < 0) via NextBatch
// with a cycling pattern of batch sizes.
func drawBatched(idx *Index, mode sampling.Mode, seed int64, n int, sizes []int) []data.ID {
	s := idx.Sampler(testQuery, mode, stats.NewRNG(seed))
	var out []data.ID
	buf := make([]data.Entry, 512)
	for i := 0; n < 0 || len(out) < n; i++ {
		k := sizes[i%len(sizes)]
		if n >= 0 && k > n-len(out) {
			k = n - len(out)
		}
		got := s.NextBatch(buf, k)
		for _, e := range buf[:got] {
			out = append(out, e.ID)
		}
		if got < k {
			break
		}
	}
	return out
}

// checkChunkInvariance is the determinism contract: for a fixed seed the
// stream and the device stats do not depend on how the pulls are chunked —
// one sample at a time (sampling.Next) or in any mix of sizes — including
// across buffer exhaustion and materialization boundaries, which the tiny
// BufferSize forces constantly. Each pattern gets a freshly built index,
// so lazily regenerated node buffers charge the same pages every time.
func checkChunkInvariance(t *testing.T, mode sampling.Mode, limit int) {
	entries := genEntries(9000, 23)
	samplingtest.CheckChunkInvariance(t, t.Name(), limit, func() (sampling.Sampler, *iosim.Device) {
		dev := iosim.NewDevice(48, iosim.DefaultCostModel())
		idx, err := Build(entries, Config{Fanout: 16, BufferSize: 4, Seed: 29, Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		dev.DropCache()
		dev.ResetStats()
		return idx.Sampler(testQuery, mode, stats.NewRNG(77)), dev
	})
}

func TestNextBatchMatchesNextWithoutReplacement(t *testing.T) {
	checkChunkInvariance(t, sampling.WithoutReplacement, 0)
}

func TestNextBatchMatchesNextWithReplacement(t *testing.T) {
	checkChunkInvariance(t, sampling.WithReplacement, 3000)
}

// TestNextBatchInterleavedWithNext mixes single-sample pulls (sampling.Next)
// and batched pulls of varying size on one sampler: the combined stream
// must equal the one-at-a-time stream, because a pull's size may not
// change how RNG or sampler state is consumed.
func TestNextBatchInterleavedWithNext(t *testing.T) {
	entries := genEntries(6000, 41)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 4, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	serial := drawBatched(idx, sampling.WithoutReplacement, 5, -1, []int{1})

	s := idx.Sampler(testQuery, sampling.WithoutReplacement, stats.NewRNG(5))
	var mixed []data.ID
	buf := make([]data.Entry, 64)
	for turn := 0; ; turn++ {
		if turn%2 == 0 {
			e, ok := sampling.Next(s)
			if !ok {
				break
			}
			mixed = append(mixed, e.ID)
			continue
		}
		got := s.NextBatch(buf, 1+turn%17)
		for _, e := range buf[:got] {
			mixed = append(mixed, e.ID)
		}
		if got == 0 {
			break
		}
	}
	if len(mixed) != len(serial) {
		t.Fatalf("interleaved: %d samples, one-at-a-time %d", len(mixed), len(serial))
	}
	for i := range serial {
		if mixed[i] != serial[i] {
			t.Fatalf("interleaved diverges at %d: %d vs %d", i, mixed[i], serial[i])
		}
	}
}

// TestNextBatchSteadyStateAllocs gates the allocation-free hot loop: once
// a with-replacement sampler is warm (alias table built, batcher and
// scratch sized, buffers published), a NextBatch call allocates nothing.
func TestNextBatchSteadyStateAllocs(t *testing.T) {
	dev := iosim.NewDevice(64, iosim.DefaultCostModel())
	idx, err := Build(genEntries(20000, 3), Config{Fanout: 32, Seed: 5, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	s := idx.Sampler(testQuery, sampling.WithReplacement, stats.NewRNG(7))
	s.AttributeIO(iosim.NewCounter(dev))
	buf := make([]data.Entry, 2000)
	s.NextBatch(buf, len(buf)) // warm
	if allocs := testing.AllocsPerRun(20, func() { s.NextBatch(buf, len(buf)) }); allocs != 0 {
		t.Fatalf("steady-state NextBatch: %v allocs per call, want 0", allocs)
	}
}

// TestNextBatchConcurrentIdentical runs batched same-seed streams
// concurrently with cache-perturbing other-seed streams (under -race via
// make race): batching shares the node buffer cache and the scratch pools
// across queries, neither of which may leak query state.
func TestNextBatchConcurrentIdentical(t *testing.T) {
	entries := genEntries(8000, 17)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 8, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	const dup = 6
	ref := drawBatched(idx, sampling.WithoutReplacement, 42, 400, []int{37})
	streams := make([][]data.ID, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				_ = drawBatched(idx, sampling.WithoutReplacement, int64(1000+i), 400, []int{64})
			}
			streams[i] = drawBatched(idx, sampling.WithoutReplacement, 42, 400, []int{37})
		}(i)
	}
	wg.Wait()
	for i, got := range streams {
		if len(got) != len(ref) {
			t.Fatalf("stream %d: %d samples, reference %d", i, len(got), len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("stream %d diverges at %d: %d vs %d", i, j, got[j], ref[j])
			}
		}
	}
}

// clusteredEntries builds a heavily skewed point set: most mass in a few
// tight clusters, the rest uniform background — the adversarial layout for
// samplers whose per-node buffers could bias toward dense regions.
func clusteredEntries(n int, seed int64) []data.Entry {
	rng := stats.NewRNG(seed)
	centers := [][2]float64{{12, 18}, {15, 80}, {55, 55}, {83, 22}, {90, 91}}
	out := make([]data.Entry, n)
	for i := range out {
		var x, y float64
		if rng.Bernoulli(0.9) {
			c := centers[rng.Intn(len(centers))]
			x = c[0] + rng.Uniform(-1.5, 1.5)
			y = c[1] + rng.Uniform(-1.5, 1.5)
		} else {
			x = rng.Uniform(0, 100)
			y = rng.Uniform(0, 100)
		}
		out[i] = data.Entry{ID: data.ID(i), Pos: geo.Vec{x, y, rng.Uniform(0, 100)}}
	}
	return out
}

// TestBatchUniformityChiSquare is the statistical regression guard: samples
// drawn in batches from the clustered set must stay uniform over P ∩ Q. The
// matching records are split into contiguous-ordinal buckets and the
// with-replacement batch stream's bucket counts are chi-square tested
// against the uniform expectation.
func TestBatchUniformityChiSquare(t *testing.T) {
	entries := clusteredEntries(40000, 71)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 8, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	// A query straddling two clusters plus background: skewed density
	// inside the range.
	q := geo.NewRect(geo.Vec{5, 5, 0}, geo.Vec{60, 65, 100})

	bucketOf := make(map[data.ID]int)
	matchCount := 0
	for _, e := range entries {
		if q.Contains(e.Pos) {
			bucketOf[e.ID] = matchCount
			matchCount++
		}
	}
	const buckets = 32
	if matchCount < buckets*50 {
		t.Fatalf("query too selective for the test: %d matches", matchCount)
	}

	s := idx.Sampler(q, sampling.WithReplacement, stats.NewRNG(101))
	const draws = 40000
	buf := make([]data.Entry, 1000)
	observed := make([]int, buckets)
	for got := 0; got < draws; {
		n := s.NextBatch(buf, len(buf))
		if n == 0 {
			t.Fatal("stream ended early")
		}
		for _, e := range buf[:n] {
			ord, ok := bucketOf[e.ID]
			if !ok {
				t.Fatalf("sample %d outside query", e.ID)
			}
			observed[ord*buckets/matchCount]++
		}
		got += n
	}

	expected := make([]float64, buckets)
	for id, ord := range bucketOf {
		_ = id
		expected[ord*buckets/matchCount]++
	}
	for i := range expected {
		expected[i] *= float64(draws) / float64(matchCount)
	}
	stat := stats.ChiSquareStat(observed, expected)
	crit := stats.ChiSquareQuantile(0.999, buckets-1)
	if stat > crit {
		t.Errorf("chi-square %0.1f exceeds 99.9%% critical value %0.1f: batch stream is biased", stat, crit)
	}
}
