package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
)

// tiedEntries returns n entries whose coordinates take only a few
// distinct values per axis, so every sort below is dominated by ties.
func tiedEntries(n int, seed int64) []data.Entry {
	rng := rand.New(rand.NewSource(seed))
	es := make([]data.Entry, n)
	for i := range es {
		es[i] = data.Entry{ID: data.ID(i), Pos: geo.Vec{
			float64(rng.Intn(50)), float64(rng.Intn(7)), float64(rng.Intn(3)),
		}}
	}
	return es
}

// referenceSTR is the sort.Slice formulation of sortSTR: the order every
// bulk-loaded tree has had, ties included.
func referenceSTR(entries []data.Entry, fanout int) {
	n := len(entries)
	s := int(math.Ceil(math.Cbrt(float64((n + fanout - 1) / fanout))))
	if s < 1 {
		s = 1
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Pos[0] < entries[j].Pos[0] })
	for lo := 0; lo < n; lo += s * s * fanout {
		slab := entries[lo:min(lo+s*s*fanout, n)]
		sort.Slice(slab, func(i, j int) bool { return slab[i].Pos[1] < slab[j].Pos[1] })
		for rlo := 0; rlo < len(slab); rlo += s * fanout {
			run := slab[rlo:min(rlo+s*fanout, len(slab))]
			sort.Slice(run, func(i, j int) bool { return run[i].Pos[2] < run[j].Pos[2] })
		}
	}
}

func TestSortSTRMatchesReference(t *testing.T) {
	for _, n := range []int{1, 13, 64, 1000, 50_000} {
		got := tiedEntries(n, int64(n))
		want := append([]data.Entry(nil), got...)
		sortSTR(got, 16)
		referenceSTR(want, 16)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d holds %v, reference %v", n, i, got[i], want[i])
			}
		}
	}
}

// hilbertSorter is the sort.Sort formulation sortByKey replaces.
type hilbertSorter struct {
	entries []data.Entry
	keys    []uint64
}

func (s *hilbertSorter) Len() int           { return len(s.entries) }
func (s *hilbertSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *hilbertSorter) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func TestSortByKeyMatchesSortSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var scratch []keyedEntry
	for _, n := range []int{0, 1, 12, 13, 500, 20_000} {
		es := tiedEntries(n, int64(n))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(40))
		}
		wantE := append([]data.Entry(nil), es...)
		wantK := append([]uint64(nil), keys...)
		sort.Sort(&hilbertSorter{entries: wantE, keys: wantK})
		scratch = sortByKey(es, keys, scratch)
		for i := range es {
			if es[i] != wantE[i] || keys[i] != wantK[i] {
				t.Fatalf("n=%d: position %d holds (%d, %v), sort.Sort gives (%d, %v)", n, i, keys[i], es[i], wantK[i], wantE[i])
			}
		}
	}
}

// TestInsertBatchReusesSortScratch checks the drain path's Hilbert sort
// runs in the tree's scratch: a second batch of the same size finds the
// buffer large enough and does not grow it.
func TestInsertBatchReusesSortScratch(t *testing.T) {
	bounds := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{100, 100, 100})
	tr := MustNew(Config{Fanout: 16, Hilbert: true, Bounds: bounds})
	tr.BulkLoad(tiedEntries(2000, 1))
	batch := tiedEntries(256, 2)
	tr.InsertBatch(append([]data.Entry(nil), batch...))
	before := cap(tr.sortBuf)
	if before < len(batch) {
		t.Fatalf("scratch cap %d after a %d-entry batch", before, len(batch))
	}
	tr.InsertBatch(append([]data.Entry(nil), batch...))
	if cap(tr.sortBuf) != before {
		t.Errorf("scratch regrown from %d to %d for a batch of the same size", before, cap(tr.sortBuf))
	}
}
