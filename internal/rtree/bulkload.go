package rtree

import (
	"cmp"
	"math"
	"slices"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/par"
)

// BulkLoad builds the tree from scratch over the given entries, replacing
// any existing contents. The sort order follows Config.Packing:
// Sort-Tile-Recursive (the default) or Hilbert order (the Hilbert R-tree
// construction the paper's RS-tree is built on). Both produce leaves
// filled to the fanout, giving the compact trees the paper assumes.
// Hilbert-mode trees remain insertable after an STR load: inserts still
// place by Hilbert value and leaf LHVs are exact maxima either way.
func (t *Tree) BulkLoad(entries []data.Entry) {
	t.version++
	t.size = len(entries)
	if len(entries) == 0 {
		t.root = t.newNode(true)
		t.height = 1
		return
	}
	sorted := make([]data.Entry, len(entries))
	copy(sorted, entries)
	if t.cfg.Packing == PackHilbert {
		t.sortHilbert(sorted)
	} else {
		sortSTR(sorted, t.cfg.Fanout)
	}

	leaves := t.packLeaves(sorted)
	t.height = 1
	for len(leaves) > 1 {
		leaves = t.packInternal(leaves)
		t.height++
	}
	t.root = leaves[0]
}

// sortHilbert orders entries by Hilbert value of their position.
func (t *Tree) sortHilbert(entries []data.Entry) {
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i] = t.hilbertValue(e.Pos)
	}
	sortByKey(entries, keys, nil)
}

// keyedEntry pairs an entry with its Hilbert key for sortByKey.
type keyedEntry struct {
	key uint64
	e   data.Entry
}

func cmpKeyedEntry(a, b keyedEntry) int { return cmp.Compare(a.key, b.key) }

// sortByKey orders entries and the index-parallel keys by key. slices'
// pdqsort is the algorithm sort.Sort runs, so given the same comparison
// outcomes it makes the same moves: entries with equal keys end up in the
// order they always did. scratch (grown when too short) holds the pairs
// and is returned for reuse.
func sortByKey(entries []data.Entry, keys []uint64, scratch []keyedEntry) []keyedEntry {
	if cap(scratch) < len(entries) {
		scratch = make([]keyedEntry, len(entries))
	}
	pairs := scratch[:len(entries)]
	for i, e := range entries {
		pairs[i] = keyedEntry{keys[i], e}
	}
	slices.SortFunc(pairs, cmpKeyedEntry)
	for i, p := range pairs {
		keys[i], entries[i] = p.key, p.e
	}
	return scratch
}

// axisKey is one entry's coordinate on an STR sort axis and the entry's
// position in the slice being sorted. cmpAxisKey compares with < alone,
// as the sort.Slice less function did (cmp.Compare would order NaNs).
type axisKey struct {
	key float64
	idx int
}

func cmpAxisKey(a, b axisKey) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// sortAxis orders es by coordinate d. It sorts (key, index) pairs with
// the pdqsort sort.Slice runs, so the resulting permutation, ties
// included, is the one sorting es directly gave; the pairs are half the
// size of an entry and need no reflective swapper. keys and tmp are
// scratch of at least len(es).
func sortAxis(es []data.Entry, d int, keys []axisKey, tmp []data.Entry) {
	keys = keys[:len(es)]
	for i := range es {
		keys[i] = axisKey{es[i].Pos[d], i}
	}
	slices.SortFunc(keys, cmpAxisKey)
	for i, k := range keys {
		tmp[i] = es[k.idx]
	}
	copy(es, tmp[:len(es)])
}

// sortSTR arranges entries in Sort-Tile-Recursive order for 3 dimensions:
// sort by x, cut into vertical slabs, sort each slab by y, cut into runs,
// sort each run by t. Consecutive groups of fanout entries then form
// spatially coherent leaves. Slabs are disjoint, so they sort in
// parallel, each in its own stretch of the scratch buffers.
func sortSTR(entries []data.Entry, fanout int) {
	n := len(entries)
	leaves := (n + fanout - 1) / fanout
	// Number of slabs along each of the first two axes.
	s := int(math.Ceil(math.Cbrt(float64(leaves))))
	if s < 1 {
		s = 1
	}
	keys := make([]axisKey, n)
	tmp := make([]data.Entry, n)
	sortAxis(entries, 0, keys, tmp)
	// Each x-slab holds about s*s leaves worth of entries, and each
	// y-run within it about s leaves.
	slabSize := s * s * fanout
	runSize := s * fanout
	par.For((n+slabSize-1)/slabSize, func(i int) {
		lo := i * slabSize
		hi := min(lo+slabSize, n)
		slab, sk, st := entries[lo:hi], keys[lo:hi], tmp[lo:hi]
		sortAxis(slab, 1, sk, st)
		for rlo := 0; rlo < len(slab); rlo += runSize {
			rhi := min(rlo+runSize, len(slab))
			sortAxis(slab[rlo:rhi], 2, sk[rlo:rhi], st[rlo:rhi])
		}
	})
}

// packLeaves groups consecutive sorted entries into full leaves.
func (t *Tree) packLeaves(entries []data.Entry) []*Node {
	fan := t.cfg.Fanout
	nodes := make([]*Node, 0, (len(entries)+fan-1)/fan)
	for lo := 0; lo < len(entries); lo += fan {
		hi := lo + fan
		if hi > len(entries) {
			hi = len(entries)
		}
		n := t.newNode(true)
		n.entries = append(n.entries, entries[lo:hi]...)
		n.count = len(n.entries)
		for _, e := range n.entries {
			n.mbr = n.mbr.ExtendPoint(e.Pos)
		}
		if t.quant != nil {
			// Populate the key cache and take the max for the LHV — not the
			// last key: only Hilbert-sorted input guarantees the last entry
			// carries the largest value, and STR packing is the default.
			n.keys = make([]uint64, len(n.entries))
			for i, e := range n.entries {
				v := t.hilbertValue(e.Pos)
				n.keys[i] = v
				if v > n.lhv {
					n.lhv = v
				}
			}
		}
		t.chargeWrite(n)
		nodes = append(nodes, n)
	}
	return nodes
}

// packInternal groups consecutive child nodes into parents.
func (t *Tree) packInternal(children []*Node) []*Node {
	fan := t.cfg.Fanout
	nodes := make([]*Node, 0, (len(children)+fan-1)/fan)
	for lo := 0; lo < len(children); lo += fan {
		hi := lo + fan
		if hi > len(children) {
			hi = len(children)
		}
		n := t.newNode(false)
		n.children = append(n.children, children[lo:hi]...)
		for _, c := range n.children {
			n.mbr = n.mbr.Extend(c.mbr)
			n.count += c.count
			if c.lhv > n.lhv {
				n.lhv = c.lhv
			}
		}
		t.chargeWrite(n)
		nodes = append(nodes, n)
	}
	return nodes
}

// bulkBounds computes the MBR of a set of entries; used by callers that
// need bounds before constructing a Hilbert tree.
func bulkBounds(entries []data.Entry) geo.Rect {
	r := geo.EmptyRect()
	for _, e := range entries {
		r = r.ExtendPoint(e.Pos)
	}
	return r
}

// EntryBounds returns the MBR covering all given entries.
func EntryBounds(entries []data.Entry) geo.Rect { return bulkBounds(entries) }
