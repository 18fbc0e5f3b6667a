package main

import (
	"math"
	"strings"

	"ps2stream"
)

// reference is the benchmark's own matcher, kept apart from the program:
// it parses the public Subscription and Message values itself, keeps a
// uniform grid over the region with per-query term sets, and applies ops
// in submission order. Each query is listed in every grid cell its region
// overlaps, once per conjunction, under that conjunction's first term.
type reference struct {
	minX, minY, cellW, cellH float64
	n                        int // cells per axis

	termIDs map[string]uint32
	qs      []refQuery
	slot    map[uint64]int32 // subscription id → index into qs
	cells   map[uint64][]int32
	stamp   []uint32 // per-query visit mark for the current match call
	epoch   uint32
	// poolTerms caches the interned terms of each pool message.
	poolTerms [][]uint32
}

type refQuery struct {
	id     uint64
	conj   [][]uint32
	region ps2stream.Region
	topK   bool
	// insAt and delAt are the op indexes of the subscribe and the
	// unsubscribe; set-up subscribes sit at math.MinInt64/2, and a live
	// query has delAt math.MaxInt64/2.
	insAt, delAt int64
}

const (
	refGrid = 128
	settled = math.MinInt64 / 2
	notYet  = math.MaxInt64 / 2
)

func newReference(region ps2stream.Region) *reference {
	return &reference{
		minX:    region.MinLon,
		minY:    region.MinLat,
		cellW:   (region.MaxLon - region.MinLon) / refGrid,
		cellH:   (region.MaxLat - region.MinLat) / refGrid,
		n:       refGrid,
		termIDs: make(map[string]uint32),
		slot:    make(map[uint64]int32),
		cells:   make(map[uint64][]int32),
	}
}

func (r *reference) term(t string) uint32 {
	id, ok := r.termIDs[t]
	if !ok {
		id = uint32(len(r.termIDs))
		r.termIDs[t] = id
	}
	return id
}

// terms interns a message text's space-separated terms.
func (r *reference) terms(text string) []uint32 {
	fs := strings.Fields(strings.ToLower(text))
	out := make([]uint32, 0, len(fs))
	for _, f := range fs {
		out = append(out, r.term(f))
	}
	return out
}

func (r *reference) cellX(x float64) int { return clampCell(int(math.Floor((x-r.minX)/r.cellW)), r.n) }
func (r *reference) cellY(y float64) int { return clampCell(int(math.Floor((y-r.minY)/r.cellH)), r.n) }

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

func cellKey(cx, cy int, term uint32) uint64 {
	return uint64(cy*refGrid+cx)<<32 | uint64(term)
}

// insert registers s as submitted at op index at.
func (r *reference) insert(s ps2stream.Subscription, topK bool, at int64) {
	q := refQuery{id: s.ID, region: s.Region, topK: topK, insAt: at, delAt: notYet}
	var conj []uint32
	for _, f := range strings.Fields(s.Query) {
		switch strings.ToUpper(f) {
		case "OR":
			q.conj = append(q.conj, conj)
			conj = nil
		case "AND":
		default:
			conj = append(conj, r.term(strings.ToLower(f)))
		}
	}
	q.conj = append(q.conj, conj)
	idx := int32(len(r.qs))
	r.qs = append(r.qs, q)
	r.stamp = append(r.stamp, 0)
	r.slot[s.ID] = idx
	x0, x1 := r.cellX(s.Region.MinLon), r.cellX(s.Region.MaxLon)
	y0, y1 := r.cellY(s.Region.MinLat), r.cellY(s.Region.MaxLat)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, conj := range q.conj {
				k := cellKey(cx, cy, conj[0])
				r.cells[k] = append(r.cells[k], idx)
			}
		}
	}
}

// remove records the unsubscribe of id at op index at.
func (r *reference) remove(id uint64, at int64) {
	if i, ok := r.slot[id]; ok {
		r.qs[i].delAt = at
	}
}

// match calls fn for every query, subscribed or not, whose region holds
// (lat, lon) and whose expression the terms satisfy.
func (r *reference) match(terms []uint32, lat, lon float64, fn func(q *refQuery)) {
	r.epoch++
	cx, cy := r.cellX(lon), r.cellY(lat)
	for _, t := range terms {
		for _, i := range r.cells[cellKey(cx, cy, t)] {
			if r.stamp[i] == r.epoch {
				continue
			}
			r.stamp[i] = r.epoch
			q := &r.qs[i]
			if q.contains(lat, lon) && q.satisfied(terms) {
				fn(q)
			}
		}
	}
}

func (q *refQuery) contains(lat, lon float64) bool {
	g := q.region
	return lon >= g.MinLon && lon <= g.MaxLon && lat >= g.MinLat && lat <= g.MaxLat
}

func (q *refQuery) satisfied(terms []uint32) bool {
conj:
	for _, c := range q.conj {
		for _, t := range c {
			if !hasTerm(terms, t) {
				continue conj
			}
		}
		return true
	}
	return false
}

func hasTerm(terms []uint32, t uint32) bool {
	for _, x := range terms {
		if x == t {
			return true
		}
	}
	return false
}
