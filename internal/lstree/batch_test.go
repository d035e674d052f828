package lstree

import (
	"testing"

	"storm/internal/iosim"
	"storm/internal/sampling"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// TestNextBatchMatchesNext: for a fixed seed the stream and the level
// scans' device charges do not depend on how the pulls are chunked — one
// sample at a time (sampling.Next) or in any mix of sizes — including
// across level fall-throughs.
func TestNextBatchMatchesNext(t *testing.T) {
	entries := genEntries(20000, 51)
	dev := iosim.NewDevice(32, iosim.DefaultCostModel())
	idx, err := Build(entries, Config{Fanout: 16, TopLevelMax: 128, Seed: 53, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	samplingtest.CheckChunkInvariance(t, "LS-tree", 0, func() (sampling.Sampler, *iosim.Device) {
		dev.DropCache()
		dev.ResetStats()
		return idx.Sampler(testQuery, stats.NewRNG(7)), dev
	})
}
