// Package samplingtest holds the chunk-size invariance check every
// sampler's test suite shares. The sampling contract is that a stream does
// not depend on how its caller chunks the NextBatch pulls: one sample at a
// time, one large pull and any mix must yield byte-identical samples and
// leave identical device I/O stats.
//
// The package imports sampling, so sampling's own suite reaches it from
// an external test package (package sampling_test).
package samplingtest

import (
	"testing"

	"storm/internal/data"
	"storm/internal/iosim"
	"storm/internal/sampling"
)

// patterns are the pull patterns every stream is checked under: single
// samples, a prime-sized chunk, one large chunk, and a cycling mix that
// puts chunk boundaries at irregular offsets.
var patterns = [][]int{{1}, {17}, {256}, {2, 99, 5}}

// Drain pulls from s with NextBatch, cycling through sizes, until limit
// samples were drawn (limit <= 0 means no limit) or a pull comes back
// short.
func Drain(s sampling.Sampler, sizes []int, limit int) []data.Entry {
	var out []data.Entry
	for i := 0; limit <= 0 || len(out) < limit; i++ {
		k := sizes[i%len(sizes)]
		if limit > 0 && k > limit-len(out) {
			k = limit - len(out)
		}
		buf := make([]data.Entry, k)
		n := s.NextBatch(buf, k)
		out = append(out, buf[:n]...)
		if n < k {
			break
		}
	}
	return out
}

// CheckChunkInvariance drains a fresh sampler from mk under every pattern
// in patterns, up to limit samples (limit <= 0 drains the whole stream),
// and fails the test unless every drain is byte-identical to the first.
// When mk also returns the device the sampler charges, the device stats
// after each drain must match too; mk must then hand out a device in the
// same state every time (fresh, or cache dropped and stats reset). It
// returns the reference stream.
func CheckChunkInvariance(t testing.TB, label string, limit int, mk func() (sampling.Sampler, *iosim.Device)) []data.Entry {
	t.Helper()
	var want []data.Entry
	var wantIO iosim.Stats
	for i, sizes := range patterns {
		s, dev := mk()
		got := Drain(s, sizes, limit)
		var io iosim.Stats
		if dev != nil {
			io = dev.Stats()
		}
		if i == 0 {
			if len(got) == 0 {
				t.Fatalf("%s: empty reference stream", label)
			}
			want, wantIO = got, io
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s chunks %v: %d samples, chunks %v gave %d", label, sizes, len(got), patterns[0], len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s chunks %v: stream diverges at %d: %+v vs %+v", label, sizes, j, got[j], want[j])
			}
		}
		if io != wantIO {
			t.Fatalf("%s chunks %v: device stats diverge:\n  %v\n  %v", label, sizes, io, wantIO)
		}
	}
	return want
}
