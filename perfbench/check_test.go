package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"ps2stream"
)

// smallInputs draws a publish-only workload small enough to brute-force.
func smallInputs(seed int64, mu, pool int) *inputs {
	in := makeInputs(spec{name: "small", mu: mu}, seed, 0)
	in.pool = in.pool[:pool]
	return in
}

// bruteForce matches one message against every subscription with no
// index at all.
func bruteForce(subs []sub, m ps2stream.Message) []uint32 {
	terms := map[string]bool{}
	for _, t := range strings.Fields(m.Text) {
		terms[t] = true
	}
	var out []uint32
	for _, s := range subs {
		g := s.s.Region
		if m.Lon < g.MinLon || m.Lon > g.MaxLon || m.Lat < g.MinLat || m.Lat > g.MaxLat {
			continue
		}
		for _, conj := range strings.Split(s.s.Query, " OR ") {
			all := true
			for _, t := range strings.Split(conj, " AND ") {
				all = all && terms[t]
			}
			if all {
				out = append(out, uint32(s.s.ID))
				break
			}
		}
	}
	return out
}

// referencePairs is what a correct system delivers for the first n
// publishes of in.
func referencePairs(in *inputs, n int64) []pair {
	var ps []pair
	for i := int64(0); i < n; i++ {
		for _, s := range bruteForce(in.population, in.pool[i%int64(len(in.pool))]) {
			ps = append(ps, pair{msg: uint32(i + 1), sub: s})
		}
	}
	return ps
}

func TestReferenceAgreesWithBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := smallInputs(seed, 3000, 3000)
		ref := newReference(region)
		for _, s := range in.population {
			ref.insert(s.s, false, settled)
		}
		matched := 0
		for _, m := range in.pool {
			var got []uint32
			ref.match(ref.terms(m.Text), m.Lat, m.Lon, func(q *refQuery) { got = append(got, uint32(q.id)) })
			want := bruteForce(in.population, m)
			if len(got) != len(want) {
				t.Fatalf("seed %d message %d: reference %v, brute force %v", seed, m.ID, got, want)
			}
			have := map[uint32]bool{}
			for _, g := range got {
				have[g] = true
			}
			for _, w := range want {
				if !have[w] {
					t.Fatalf("seed %d message %d: reference %v, brute force %v", seed, m.ID, got, want)
				}
			}
			matched += len(want)
		}
		if matched == 0 {
			t.Fatalf("seed %d: no message matched; the comparison is vacuous", seed)
		}
	}
}

func TestStaticCheckCatchesOneWrongPair(t *testing.T) {
	in := smallInputs(7, 3000, 2000)
	const n = 4000 // every pool entry published twice
	good := referencePairs(in, n)
	if len(good) < 10 {
		t.Fatalf("only %d pairs; the check is vacuous", len(good))
	}
	run := func(ps []pair) checkResult {
		var res checkResult
		sortPairs(ps)
		checkStatic(&res, in, ps, n, newReference(region))
		return res
	}
	if res := run(append([]pair(nil), good...)); res.failed != 0 || res.messages != n {
		t.Fatalf("correct deliveries: %d failed of %d checked (%s)", res.failed, res.messages, res.firstFailure)
	}
	k := rand.New(rand.NewSource(1)).Intn(len(good))
	mutations := map[string][]pair{
		"removed":    append(append([]pair(nil), good[:k]...), good[k+1:]...),
		"duplicated": append(append([]pair(nil), good...), good[k]),
		"added":      append(append([]pair(nil), good...), pair{msg: good[k].msg, sub: good[k].sub + 1<<30}),
		"unknown":    append(append([]pair(nil), good...), pair{msg: n + 5, sub: good[k].sub}),
	}
	for name, ps := range mutations {
		if res := run(ps); res.failed != 1 {
			t.Errorf("%s pair: %d failed ops, want 1 (%s)", name, res.failed, res.firstFailure)
		}
	}
}

// churnInputs is a tiny churn schedule: two publishes, then the
// subscription of one query that matches both, then more publishes.
func churnInputs() *inputs {
	msg := ps2stream.Message{Text: "coffee brooklyn", Lat: 40.7, Lon: -73.95}
	q := sub{s: ps2stream.Subscription{ID: 1, Query: "coffee", Region: ps2stream.RegionAround(40.7, -73.95, 10, 10)}}
	in := &inputs{pool: []ps2stream.Message{msg}}
	in.kinds = make([]opKind, 3*reorderHorizon)
	in.kinds[10] = opSubscribe
	in.subOps = []sub{q}
	return in
}

func TestChurnCheckSeparatesReorderFromFailure(t *testing.T) {
	in := churnInputs()
	n := int64(len(in.kinds))
	var good []pair
	for i := int64(11); i < n; i++ {
		good = append(good, pair{msg: uint32(i + 1), sub: 1})
	}
	run := func(ps []pair) checkResult {
		var res checkResult
		sortPairs(ps)
		checkChurn(&res, in, ps, n, newReference(region))
		return res
	}
	if res := run(append([]pair(nil), good...)); res.failed != 0 || res.reorder != 0 {
		t.Fatalf("in-order deliveries: %d failed, %d reordered (%s)", res.failed, res.reorder, res.firstFailure)
	}
	// A publish just before the subscribe that still matched, and one just
	// after that missed: both inside the horizon, so reorder.
	early := append(append([]pair(nil), good[1:]...), pair{msg: 10, sub: 1})
	if res := run(early); res.failed != 0 || res.reorder != 2 || res.reorderMissing != 1 || res.reorderExtra != 1 {
		t.Errorf("reorder within the horizon: %+v", res)
	}
	// A publish far past the subscribe that missed is a failure.
	far := append(append([]pair(nil), good[:2*reorderHorizon]...), good[2*reorderHorizon+1:]...)
	if res := run(far); res.failed != 1 || res.reorder != 0 {
		t.Errorf("missing pair past the horizon: %d failed, %d reordered", res.failed, res.reorder)
	}
	dup := append(append([]pair(nil), good...), good[len(good)-1])
	if res := run(dup); res.failed != 1 {
		t.Errorf("duplicated pair: %d failed", res.failed)
	}
}

func TestTopKFaults(t *testing.T) {
	q := &refQuery{id: 1, insAt: 0, delAt: notYet}
	in := map[uint64]bool{5: true, 6: true, 7: true}
	replay := func(ms ...uint64) map[uint64]bool {
		out := map[uint64]bool{}
		for _, m := range ms {
			out[m] = true
		}
		return out
	}
	cases := []struct {
		name    string
		set     []uint64
		replay  map[uint64]bool
		counted []uint64
		bad     bool
	}{
		{"all matches held", []uint64{5, 6, 7}, replay(5, 6, 7), []uint64{5, 6, 7}, false},
		{"pre-subscribe match left out", []uint64{6, 7}, replay(6, 7), []uint64{6, 7}, false},
		{"counted match left out", []uint64{5, 6}, replay(5, 6), []uint64{5, 6, 7}, true},
		{"member outside the window", []uint64{5, 9}, replay(5, 9), nil, true},
		{"events disagree", []uint64{5, 6}, replay(5), nil, true},
	}
	for _, c := range cases {
		if got := topKFault(q, c.set, c.replay, in, c.counted, 100); (got != "") != c.bad {
			t.Errorf("%s: fault %q", c.name, got)
		}
	}
	gone := &refQuery{id: 2, insAt: 0, delAt: 50}
	if topKFault(gone, []uint64{5}, replay(5), in, nil, 100) == "" {
		t.Error("an unsubscribed top-k subscription holding members passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

// TestHarnessCost measures the generator and recorder with no system:
// the harness's own CPU per op, reported in the README.
func TestHarnessCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing")
	}
	in := smallInputs(1, 10, poolSize)
	rec, err := newRecorder(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sink ps2stream.Message
	n := 2000000
	c0 := cpuSeconds()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m := in.pool[i%len(in.pool)]
		m.ID = uint64(i + 1)
		sink = m
		rec.onMatch(ps2stream.Match{SubscriptionID: 7, MessageID: m.ID})
	}
	t.Logf("harness: %.3f us CPU per op (one publish value and one recorded match), %.3f us wall; last id %d",
		(cpuSeconds()-c0)*1e6/float64(n), float64(time.Since(t0).Microseconds())/float64(n), sink.ID)
}
