// Distributed: STORM on a (simulated) cluster of commodity machines. The
// dataset is Hilbert-partitioned across shards, each with a local RS-tree;
// a coordinator draws uniform samples across shards weighted by per-shard
// matching counts and folds them into one online estimate — the deployment
// the paper describes over a DFS.
package main

import (
	"fmt"
	"log"

	"storm"
	"storm/internal/distr"
)

func main() {
	fmt.Println("generating 1M OSM-like points...")
	ds := storm.GenerateOSM(storm.OSMConfig{N: 1_000_000, Seed: 17})

	for _, shards := range []int{1, 4, 8} {
		cluster, err := distr.Build(ds, distr.Config{Shards: shards, Seed: 17})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n-- %d shard(s) --\n", shards)
		for _, s := range cluster.Shards() {
			fmt.Printf("  shard %d: %d records\n", s.ID, s.Len())
		}

		q := storm.Range{MinX: -76, MinY: 38.7, MaxX: -72, MaxY: 42.7,
			MinT: 0, MaxT: 86400 * 365}.Rect()
		fmt.Printf("  matching records across shards: %d\n", cluster.Count(q))

		cluster.ResetNet()
		est, err := cluster.EstimateAvg(q, "altitude", 2000, 0.95)
		if err != nil {
			log.Fatal(err)
		}
		net := cluster.Net()
		fmt.Printf("  coordinator online AVG: %s\n", est)
		fmt.Printf("  network: %d messages, %d samples moved\n", net.Messages, net.SamplesMoved)
	}
}
