package engine

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/rtree"
	"storm/internal/sampling"
)

// registerGolden pins everything Register builds over 100k gen.OSM rows
// with the LS-tree and a 4-shard cluster: every RS-tree, LS-level and
// shard node, the RS-tree sample buffers, the attribute summaries, the
// device counters after the build and after sampling, and the first 2k
// RS/LS/distributed sample IDs. The constants were captured from the
// serial build, so any reordering of build work, build I/O or build
// randomness shows up as a mismatch in the named component.
var registerGolden = map[string]uint64{
	"rs.nodes":        0xb157268b00be6952,
	"rs.buffers":      0x6d6297ae4a5beafd,
	"rs.summaries":    0xbf155bd53e61b61e,
	"ls.levels":       0xeb7ef1aca5cbb722,
	"ls.summaries":    0xb0f6bb83716fde11,
	"shards":          0xea425a5fad2aa14e,
	"device.register": 0x9993f0fe267033ab,
	"samples.rs":      0x2005f8b86cf40ebb,
	"samples.ls":      0x7609c64a7f648278,
	"samples.distr":   0xdc5e10fa21cc9c4d,
	"device.sampled":  0xf5943e9164bc7a66,
}

func TestRegisterBuildGolden(t *testing.T) {
	e := New(Config{Seed: 11, BufferPoolPages: 512})
	ds := gen.OSM(gen.OSMConfig{N: 100_000, Seed: 5})
	h, err := e.Register(ds, IndexOptions{LSTree: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	sum := func(name string, fill func(hash.Hash64)) {
		hh := fnv.New64a()
		fill(hh)
		got[name] = hh.Sum64()
	}

	sum("rs.nodes", func(w hash.Hash64) { hashTree(w, h.rs.Tree()) })
	sum("rs.buffers", func(w hash.Hash64) {
		walkNodes(h.rs.Tree().Root(), func(n *rtree.Node) { fmt.Fprintf(w, "%d:%v;", n.PageID(), n.Aux()) })
	})
	sum("rs.summaries", func(w hash.Hash64) {
		walkNodes(h.rs.Tree().Root(), func(n *rtree.Node) { fmt.Fprintf(w, "%d:%v;", n.PageID(), h.sums.Stats(n)) })
	})
	sum("ls.levels", func(w hash.Hash64) {
		for i := 0; i < h.ls.Levels(); i++ {
			hashTree(w, h.ls.Level(i))
		}
	})
	sum("ls.summaries", func(w hash.Hash64) {
		for i := 0; i < h.ls.Levels(); i++ {
			s := rtree.NewSummaries(h.ls.Level(i), ds)
			walkNodes(h.ls.Level(i).Root(), func(n *rtree.Node) { fmt.Fprintf(w, "%d:%v;", n.PageID(), s.Stats(n)) })
		}
	})
	sum("shards", func(w hash.Hash64) {
		for _, sh := range h.Cluster().Shards() {
			hashTree(w, sh.Index().Tree())
			walkNodes(sh.Index().Tree().Root(), func(n *rtree.Node) { fmt.Fprintf(w, "%d:%v;", n.PageID(), n.Aux()) })
		}
	})
	sum("device.register", func(w hash.Hash64) { fmt.Fprintf(w, "%+v", e.Device().Stats()) })

	b := ds.Bounds()
	q := geo.Range{MinX: -75.5, MinY: 39.5, MaxX: -72.5, MaxY: 42, MinT: b.Min[2], MaxT: b.Max[2]}
	for _, m := range []struct {
		name   string
		method Method
	}{{"samples.rs", MethodRSTree}, {"samples.ls", MethodLSTree}, {"samples.distr", MethodDistributed}} {
		s, err := h.Sample(q, 2000, m.method, sampling.WithoutReplacement, 99)
		if err != nil {
			t.Fatal(err)
		}
		if len(s) != 2000 {
			t.Fatalf("%s: drew %d samples, want 2000", m.name, len(s))
		}
		sum(m.name, func(w hash.Hash64) {
			for _, en := range s {
				binary.Write(w, binary.LittleEndian, en.ID)
			}
		})
	}
	sum("device.sampled", func(w hash.Hash64) { fmt.Fprintf(w, "%+v", e.Device().Stats()) })

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != registerGolden[name] {
			t.Errorf("%s: hash %#x, golden %#x", name, got[name], registerGolden[name])
		}
	}
}

// hashTree writes every node of t in preorder: page, leaf flag, version,
// subtree count, MBR and, for leaves, the entries in stored order.
func hashTree(w hash.Hash64, t *rtree.Tree) {
	walkNodes(t.Root(), func(n *rtree.Node) {
		leaf := uint8(0)
		if n.IsLeaf() {
			leaf = 1
		}
		binary.Write(w, binary.LittleEndian, uint64(n.PageID()))
		binary.Write(w, binary.LittleEndian, leaf)
		binary.Write(w, binary.LittleEndian, n.Version())
		binary.Write(w, binary.LittleEndian, uint64(n.Count()))
		hashRect(w, n.MBR())
		for _, en := range n.Entries() {
			hashEntry(w, en)
		}
	})
}

func hashRect(w hash.Hash64, r geo.Rect) {
	for d := 0; d < geo.Dims; d++ {
		binary.Write(w, binary.LittleEndian, math.Float64bits(r.Min[d]))
		binary.Write(w, binary.LittleEndian, math.Float64bits(r.Max[d]))
	}
}

func hashEntry(w hash.Hash64, en data.Entry) {
	binary.Write(w, binary.LittleEndian, en.ID)
	for d := 0; d < geo.Dims; d++ {
		binary.Write(w, binary.LittleEndian, math.Float64bits(en.Pos[d]))
	}
}

func walkNodes(n *rtree.Node, fn func(*rtree.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walkNodes(c, fn)
	}
}

// BenchmarkRegister times the index build behind Register — RS-tree with
// precomputed buffers and summaries, plus the LS-tree — over 200k
// gen.OSM rows with I/O simulation on (`make bench-build`).
func BenchmarkRegister(b *testing.B) {
	ds := gen.OSM(gen.OSMConfig{N: 200_000, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Config{Seed: 11, BufferPoolPages: 2048, NoMetrics: true})
		if _, err := e.Register(ds, IndexOptions{LSTree: true}); err != nil {
			b.Fatal(err)
		}
	}
}
