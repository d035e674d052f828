package ingest

import (
	"slices"
	"sort"
	"sync"

	"storm/internal/data"
	"storm/internal/stats"
)

// WindowReservoir maintains an exactly uniform without-replacement sample
// of size up to k over the LIVE portion of a record stream — the records
// whose event time lies in a trailing window [cutoff, ∞) — without keeping
// the whole window in memory.
//
// # Priority sampling
//
// Every arrival is tagged with an independent Uniform(0,1) priority. At any
// instant, the k smallest-priority records among the live ones form an
// exactly uniform k-subset of the live records: priorities are i.i.d. and
// independent of the record payloads, so every live k-subset is equally
// likely to hold the k minima (ties have probability zero). Expiry needs
// no correction — dropping dead records and re-taking the k minima of the
// survivors is the same experiment run on the surviving population.
//
// # Expiry-aware pruning
//
// Keeping every live record would make the reservoir a window copy, so
// arrivals are pruned by a dominance rule: record x can be discarded as
// soon as k retained records have event time ≥ x's AND priority < x's.
// Whenever x is live under a trailing window, its k dominators (expiring no
// earlier) are live too, so x can never again be among the k smallest live
// priorities — discarding it cannot change any future sample. The rule
// compares event times, not arrival order, so bounded out-of-order streams
// keep exact uniformity (a late-arriving old record is dominated only by
// records that provably outlive it). Retained size is O(k·log(n/k)) in
// expectation for in-order streams.
//
// A WindowReservoir is internally locked; Add, Expire and Sample may be
// called concurrently.
type WindowReservoir struct {
	mu  sync.Mutex
	k   int
	rng *stats.RNG
	// items holds the retained (non-dominated, non-expired) records in
	// ascending event-time order.
	items []windowItem
	// added and pruned count arrivals and dominance-pruned discards over
	// the reservoir's lifetime (expiry is not a prune).
	added  uint64
	pruned uint64
	// pruneAt is the retained size that triggers the next dominance prune.
	// Pruning eagerly on every Add would cost O(retained) per record; the
	// doubling trigger amortizes it to O(log) comparisons per arrival while
	// keeping retained memory within 2× of the pruned skyline. Pruning is
	// purely a memory optimization — Sample is exact either way.
	pruneAt int
	// heap and tail are prune's scratch buffers (bounded max-heap and the
	// reversed survivor list), and batch is AddBatch's staging buffer;
	// all reused across calls so a sustained stream runs without
	// allocating.
	heap  []float64
	tail  []windowItem
	batch []windowItem
}

// windowItem is one retained arrival: its event time, its sampling
// priority, and the record payload.
type windowItem struct {
	t   float64
	pri float64
	row data.Row
}

// cmpEventTime orders window items by event time with the same
// comparisons as a t < t' less function (NaN compares equal to
// everything), so typed sorts keep the order the reflective ones gave.
func cmpEventTime(a, b windowItem) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	}
	return 0
}

// NewWindowReservoir returns a reservoir holding an exactly uniform sample
// of up to k live records. The seed drives the priority draws; a fixed
// seed makes the retained sample a deterministic function of the arrival
// sequence.
func NewWindowReservoir(k int, seed int64) *WindowReservoir {
	if k < 1 {
		k = 1
	}
	return &WindowReservoir{k: k, rng: stats.NewRNG(seed)}
}

// K returns the reservoir's sample capacity.
func (w *WindowReservoir) K() int { return w.k }

// Added returns how many records have ever been offered to the reservoir.
func (w *WindowReservoir) Added() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.added
}

// Retained returns the current number of retained records — the memory
// footprint, not the sample size (Sample returns at most K of these).
func (w *WindowReservoir) Retained() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.items)
}

// Add offers one record to the reservoir; its event time is row.Pos[2].
func (w *WindowReservoir) Add(row data.Row) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.add(row)
}

// AddBatch offers a batch of records under one lock acquisition — the
// batched producer path (Ingestor.AppendBatch). The batch is sorted by
// event time and merged into the retained list in one backward pass, so a
// chunk arriving out of order (producers racing for the append slot)
// costs one bounded merge instead of one O(retained) memmove per record.
// The sample distribution is identical to calling Add per record in
// order; only the prune cadence differs (at most once per batch).
func (w *WindowReservoir) AddBatch(rows []data.Row) {
	if len(rows) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.added += uint64(len(rows))
	// Tag each arrival with its priority, drawing in arrival order so a
	// fixed seed yields the same priority sequence as per-record Add.
	batch := w.batch[:0]
	for i := range rows {
		batch = append(batch, windowItem{t: rows[i].Pos[2], pri: w.rng.Float64(), row: rows[i]})
	}
	w.batch = batch
	if !slices.IsSortedFunc(batch, cmpEventTime) {
		slices.SortStableFunc(batch, cmpEventTime)
	}
	// Backward merge: only retained items with event time above the
	// batch's minimum move, so an in-order (or nearly in-order) stream
	// pays O(batch + overlap), not O(retained).
	n := len(w.items)
	w.items = append(w.items, batch...)
	i, j, k := n-1, len(batch)-1, len(w.items)-1
	for j >= 0 {
		if i >= 0 && w.items[i].t > batch[j].t {
			w.items[k] = w.items[i]
			i--
		} else {
			w.items[k] = batch[j]
			j--
		}
		k--
	}
	if len(w.items) >= w.pruneAt {
		w.prune()
	}
}

// add is Add's body. Caller holds w.mu.
func (w *WindowReservoir) add(row data.Row) {
	w.added++
	it := windowItem{t: row.Pos[2], pri: w.rng.Float64(), row: row}
	// Insert in event-time order. Arrivals are usually in order, so probe
	// the tail first and fall back to binary search for stragglers.
	n := len(w.items)
	if n == 0 || w.items[n-1].t <= it.t {
		w.items = append(w.items, it)
	} else {
		i := sort.Search(n, func(i int) bool { return w.items[i].t > it.t })
		w.items = append(w.items, windowItem{})
		copy(w.items[i+1:], w.items[i:])
		w.items[i] = it
	}
	if len(w.items) >= w.pruneAt {
		w.prune()
	}
}

// prune drops dominated items: walking from the latest event time
// backward, a max-heap tracks the k smallest priorities seen so far (all
// belonging to records expiring no earlier than the current one); once the
// heap is full, any item with priority above its maximum has k dominators
// and is discarded. Caller holds w.mu.
func (w *WindowReservoir) prune() {
	n := len(w.items)
	if n <= w.k {
		w.pruneAt = 2 * w.k
		return
	}
	heap := w.heap[:0]
	// Collect survivors back-to-front, then reverse into time order.
	tail := w.tail[:0]
	for i := n - 1; i >= 0; i-- {
		it := w.items[i]
		if len(heap) == w.k && it.pri > heap[0] {
			w.pruned++
			continue
		}
		tail = append(tail, it)
		heapPush(&heap, w.k, it.pri)
	}
	w.heap = heap
	w.tail = tail
	keep := w.items[:0]
	for i := len(tail) - 1; i >= 0; i-- {
		keep = append(keep, tail[i])
	}
	w.items = keep
	// Next prune when the skyline has doubled (floored so tiny reservoirs
	// still amortize).
	w.pruneAt = 2 * len(w.items)
	if w.pruneAt < 2*w.k {
		w.pruneAt = 2 * w.k
	}
}

// heapPush folds pri into a bounded max-heap of the k smallest values.
func heapPush(h *[]float64, k int, pri float64) {
	hs := *h
	if len(hs) < k {
		hs = append(hs, pri)
		// Sift up.
		i := len(hs) - 1
		for i > 0 {
			p := (i - 1) / 2
			if hs[p] >= hs[i] {
				break
			}
			hs[p], hs[i] = hs[i], hs[p]
			i = p
		}
		*h = hs
		return
	}
	if pri >= hs[0] {
		return
	}
	hs[0] = pri
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(hs) && hs[l] > hs[big] {
			big = l
		}
		if r < len(hs) && hs[r] > hs[big] {
			big = r
		}
		if big == i {
			break
		}
		hs[i], hs[big] = hs[big], hs[i]
		i = big
	}
	*h = hs
}

// Expire drops retained records with event time below cutoff. Safe to call
// at any cadence: Sample applies its own cutoff, so Expire is purely a
// memory release.
func (w *WindowReservoir) Expire(cutoff float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.expire(cutoff)
}

// expire trims the dead prefix. Caller holds w.mu.
func (w *WindowReservoir) expire(cutoff float64) {
	i := sort.Search(len(w.items), func(i int) bool { return w.items[i].t >= cutoff })
	if i > 0 {
		w.items = append(w.items[:0], w.items[i:]...)
	}
}

// Sample returns an exactly uniform without-replacement sample of up to K
// records with event time ≥ cutoff — the k smallest-priority live records.
// Fewer than K are returned only when fewer live records exist. The
// returned slice is freshly allocated, in arbitrary order.
func (w *WindowReservoir) Sample(cutoff float64) []data.Row {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.expire(cutoff)
	live := w.items
	if len(live) <= w.k {
		out := make([]data.Row, len(live))
		for i, it := range live {
			out[i] = it.row
		}
		return out
	}
	// k smallest priorities among the live items.
	idx := make([]int, len(live))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return live[idx[a]].pri < live[idx[b]].pri })
	out := make([]data.Row, w.k)
	for i := 0; i < w.k; i++ {
		out[i] = live[idx[i]].row
	}
	return out
}
