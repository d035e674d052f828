package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/geo"
)

// workload fixes one traffic mix and the system configuration it runs on.
type workload struct {
	name      string
	records   int  // base OSM-like records
	poolPages int  // simulated buffer pool pages (stormd -pool)
	lstree    bool // build the LS-tree beside the RS-tree (stormd's index configuration)
	shards    int  // shards on the TCP cluster; 0 = single node
	hosts     int  // in-process wire.Server shard hosts
	// queryConns is the number of query connections; with the producer's
	// connection the total never exceeds nproc = 2.
	queryConns int
	// queryRate is the offered open-loop statements/s: about a third of
	// the closed-loop capacity, so the host's stretches at half speed
	// still leave the server below saturation.
	queryRate float64
	// ingestRate is the producer's offered records/s during the measured
	// phases; 0 means the workload has no write traffic there, and its
	// ingest metrics come from an ingest-only tail phase at tailRate.
	ingestRate float64
	tailRate   float64
	// streamedShare is the share of the query stream over the streamed
	// region (ingest_mix only).
	streamedShare float64
	noLSTreeStmts bool // never emit USING lstree (the cluster has no LS-tree path)
	// deckCells is how many base-region draws one deck holds (see
	// statements).
	deckCells int
}

var workloads = map[string]workload{
	"explore": {
		name: "explore", records: 1_000_000, poolPages: 2048, lstree: true,
		queryConns: 2, queryRate: 90, tailRate: 10_000, deckCells: 240,
	},
	"cluster": {
		name: "cluster", records: 1_000_000, poolPages: 2048,
		shards: 8, hosts: 2, queryConns: 2, queryRate: 70, tailRate: 2_500,
		noLSTreeStmts: true, deckCells: 240,
	},
	"ingest_mix": {
		name: "ingest_mix", records: 1_000_000, poolPages: 2048, lstree: true,
		queryConns: 1, queryRate: 50, ingestRate: 2_500, streamedShare: 0.4, deckCells: 120,
	},
}

// Producer batching: records are POSTed in batches of batchRecords every
// rate-derived interval (100 records every 10 ms at 10k records/s).
const batchRecords = 100

// The streamed region is a box outside the base data's conterminous-US
// extent, so only producer records ever land in it; its records carry
// event times past the base year.
var streamedBox = [4]float64{-160, 18, -155, 23}

const (
	baseYear    = 86400 * 365 // base data event times lie in [0, baseYear)
	streamT0    = baseYear + 3600
	lastWindow  = "5s"  // LAST window of the windowed streamed statements
	streamedAlt = 800.0 // mean altitude of streamed records
)

// stmt is one generated statement with what the checks need to know.
type stmt struct {
	id       int
	text     string
	body     []byte // POST /query request body
	count    bool   // COUNT (exact, no sampling)
	box      [4]float64
	hasTime  bool
	time     [2]float64
	hasWhere bool
	minAlt   float64 // WHERE altitude >= minAlt
	lstree   bool
	// relErrPct is the WITH ERROR target in percent (AVG statements).
	relErrPct float64
	// streamed marks a statement over the streamed region: its answer
	// moves with ingest, so it is checked against the producer's ack log
	// rather than the oracle. visible marks the plain streamed COUNT used
	// to time ingest visibility; windowed ones carry a LAST clause.
	streamed bool
	visible  bool
	windowed bool
	// truthN, truthAvg and truthSD are the oracle's exact answer over
	// the base rows (non-streamed statements) and the spread behind it.
	truthN   int
	truthAvg float64
	truthSD  float64
}

// fmtNum renders a coordinate the way it appears in a statement; the
// oracle re-parses the rendered text so both sides use identical floats.
func fmtNum(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 4, 64), 64)
	return v
}

func num(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

func (s *stmt) render() {
	var b strings.Builder
	if s.count {
		b.WriteString("COUNT FROM osm WHERE ")
	} else {
		b.WriteString("ESTIMATE AVG(altitude) FROM osm WHERE ")
	}
	fmt.Fprintf(&b, "REGION(%s, %s, %s, %s)", num(s.box[0]), num(s.box[1]), num(s.box[2]), num(s.box[3]))
	if s.hasTime {
		fmt.Fprintf(&b, " AND TIME(%s, %s)", num(s.time[0]), num(s.time[1]))
	}
	if s.hasWhere {
		fmt.Fprintf(&b, " AND altitude >= %s", num(s.minAlt))
	}
	if s.windowed {
		b.WriteString(" LAST " + lastWindow)
	}
	if !s.count {
		b.WriteString(" WITH ERROR " + num(s.relErrPct) + "%")
	}
	if s.lstree {
		b.WriteString(" USING lstree")
	}
	s.text = b.String()
	s.body, _ = json.Marshal(map[string]string{"statement": s.text})
}

// zooms are the REGION widths (degrees) a user zooms through.
var zooms = []float64{0.25, 0.5, 1, 2, 4, 8}

// variantsPerCell distinct statements are generated per (city, zoom)
// cell. What a variant asks is fixed by its index, so every seed offers
// the same mix at the same popularity: variant v targets relErrs[v%5],
// and its group v/5 is a plain AVG, an AVG with a TIME window, an AVG
// with a WHERE comparison, or an AVG USING lstree; the group-0 variant at
// the loosest target is a COUNT instead. The seed moves the box centers,
// TIME windows, WHERE thresholds and the draws.
const variantsPerCell = 20

var relErrs = []float64{0.1, 0.2, 0.3, 0.4, 0.5}

// statements is a workload's seeded statement source: a fixed pool of
// distinct statements (the oracle answers each once) and a stream of
// decks drawn from it. A deck holds every cell in proportion to its Zipf
// weight (at least once; largest-remainder rounding to deckCells draws),
// each draw taking the cell's next variant in rotation, plus the
// streamed-region statements at the workload's share; the seed shuffles
// each deck. Every run therefore offers the same mix, in a seeded order.
type statements struct {
	pool     []*stmt // base-region statements, grouped by cell
	streamed []*stmt // statements over the streamed region dealt into decks
	visible  *stmt   // the plain streamed COUNT that times ingest visibility
	perDeck  []int   // draws of each cell per deck
	streamN  int     // streamed-region draws per deck
	rot      []int   // next variant of each cell
	rng      *rand.Rand
	deck     []*stmt
}

// newStatements builds the pool for w from seed. Cells are (city, zoom)
// pairs ranked so the heaviest cities' zoom-ins are hottest, drawn by a
// Zipf law over that rank; each cell holds variantsPerCell statements
// with jittered box centers.
func newStatements(w workload, seed int64, orc *oracle) *statements {
	rng := rand.New(rand.NewSource(seed*7 + 1))
	cities := gen.DefaultCities()
	sort.SliceStable(cities, func(i, j int) bool { return cities[i].Weight > cities[j].Weight })
	type cell struct{ ci, zi int }
	var cells []cell
	for ci := range cities {
		for zi := range zooms {
			cells = append(cells, cell{ci, zi})
		}
	}
	sort.SliceStable(cells, func(i, j int) bool {
		ri, rj := cells[i].ci+cells[i].zi, cells[j].ci+cells[j].zi
		if ri != rj {
			return ri < rj
		}
		return cells[i].ci < cells[j].ci
	})
	s := &statements{rng: rand.New(rand.NewSource(seed*7 + 2))}
	s.perDeck = zipfQuota(len(cells), w.deckCells)
	s.streamN = int(math.Round(float64(w.deckCells) * w.streamedShare / (1 - w.streamedShare)))
	for rank, c := range cells {
		// Rotations start at the cell's rank, so the cells drawn once
		// per deck still cover every variant kind between them.
		s.rot = append(s.rot, rank%variantsPerCell)
		city, width := cities[c.ci], zooms[c.zi]
		for v := 0; v < variantsPerCell; v++ {
			st := &stmt{id: len(s.pool), relErrPct: relErrs[v%len(relErrs)]}
			cx := city.Lon + (rng.Float64()-0.5)*0.05*width
			cy := city.Lat + (rng.Float64()-0.5)*0.05*width
			st.box = [4]float64{fmtNum(cx - width/2), fmtNum(cy - width/2), fmtNum(cx + width/2), fmtNum(cy + width/2)}
			switch v / len(relErrs) {
			case 0:
				st.count = v%len(relErrs) == len(relErrs)-1
			case 1:
				days := []float64{30, 90, 180}[v%3] * 86400
				lo := math.Floor(rng.Float64() * (baseYear - days))
				st.hasTime, st.time = true, [2]float64{lo, lo + days}
			case 2:
				// Threshold at the box's mean altitude, so about half the
				// region's records qualify.
				_, avg, _ := orc.answer(st, false)
				st.hasWhere, st.minAlt = true, math.Round(avg)
			case 3:
				st.lstree = !w.noLSTreeStmts
			}
			st.render()
			s.pool = append(s.pool, st)
		}
	}
	box := streamedBox
	s.visible = &stmt{id: len(s.pool), count: true, box: box, streamed: true, visible: true}
	s.visible.render()
	if w.streamedShare > 0 {
		avgLast := &stmt{id: len(s.pool) + 1, box: box, streamed: true, windowed: true, relErrPct: 1}
		countLast := &stmt{id: len(s.pool) + 2, count: true, box: box, streamed: true, windowed: true}
		avgLast.render()
		countLast.render()
		// Half of the streamed draws are visibility COUNTs.
		s.streamed = []*stmt{s.visible, s.visible, avgLast, countLast}
	}
	return s
}

// zipfQuota splits total draws over n ranks in proportion to 1/(rank+1),
// at least one each, by largest remainders.
func zipfQuota(n, total int) []int {
	h := 0.0
	for r := 0; r < n; r++ {
		h += 1 / float64(r+1)
	}
	q := make([]int, n)
	rem := make([]float64, n)
	left := total - n
	for r := range q {
		exact := float64(left) / (float64(r+1) * h)
		q[r] = 1 + int(exact)
		rem[r] = exact - float64(int(exact))
	}
	for sum(q) < total {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		q[best]++
		rem[best] = -1
	}
	return q
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// deckSize is how many statements one deck deals.
func (s *statements) deckSize() int { return sum(s.perDeck) + s.streamN }

// next returns the next statement of the stream.
func (s *statements) next() *stmt {
	if len(s.deck) == 0 {
		s.refill()
	}
	st := s.deck[0]
	s.deck = s.deck[1:]
	return st
}

// refill deals and shuffles the next deck.
func (s *statements) refill() {
	for c, n := range s.perDeck {
		for i := 0; i < n; i++ {
			s.deck = append(s.deck, s.pool[c*variantsPerCell+s.rot[c]])
			s.rot[c] = (s.rot[c] + 1) % variantsPerCell
		}
	}
	if len(s.streamed) > 0 {
		for i := 0; i < s.streamN; i++ {
			s.deck = append(s.deck, s.streamed[i%len(s.streamed)])
		}
	}
	s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
}

// batch is one producer POST /ingest body.
type batch struct {
	seq  int
	n    int
	cum  int // records in this and every earlier batch
	body []byte
	rows []data.Row // the same records, for in-process appends
}

// streamAltRange bounds the altitudes the producer generates.
var streamAltRange = [2]float64{streamedAlt - 400, streamedAlt + 400}

// newBatches generates count producer batches from seed: records spread
// uniformly over the streamed region, event times advancing one second
// per second of schedule after streamT0 (so LAST windows trail the feed).
func newBatches(seed int64, count int, interval time.Duration) []*batch {
	return newBatchesFrom(seed, count, interval, 0, false)
}

// newBatchesFrom continues a producer stream at sequence number firstSeq;
// withRows also keeps each record as a data.Row for in-process appends.
func newBatchesFrom(seed int64, count int, interval time.Duration, firstSeq int, withRows bool) []*batch {
	rng := rand.New(rand.NewSource(seed*7 + 3 + int64(firstSeq)))
	out := make([]*batch, count)
	cum := 0
	for i := range out {
		seq := firstSeq + i
		var b strings.Builder
		var rows []data.Row
		t0 := streamT0 + float64(seq)*interval.Seconds()
		for j := 0; j < batchRecords; j++ {
			lon := streamedBox[0] + rng.Float64()*(streamedBox[2]-streamedBox[0])
			lat := streamedBox[1] + rng.Float64()*(streamedBox[3]-streamedBox[1])
			t := t0 + float64(j)*interval.Seconds()/batchRecords
			alt := math.Max(streamAltRange[0], math.Min(streamAltRange[1], streamedAlt+rng.NormFloat64()*100))
			lon, lat, t, alt = fmtNum(lon), fmtNum(lat), fmtNum(t), fmtNum(alt)
			fmt.Fprintf(&b, `{"lon":%s,"lat":%s,"time":%s,"num":{"altitude":%s}}`+"\n", num(lon), num(lat), num(t), num(alt))
			if withRows {
				rows = append(rows, data.Row{Pos: geo.Vec{lon, lat, t}, Num: map[string]float64{"altitude": alt}})
			}
		}
		cum += batchRecords
		out[i] = &batch{seq: seq, n: batchRecords, cum: cum, body: []byte(b.String()), rows: rows}
	}
	return out
}

// batchInterval is the producer's send period for a records/s rate.
func batchInterval(rate float64) time.Duration {
	return time.Duration(float64(batchRecords) / rate * float64(time.Second))
}
