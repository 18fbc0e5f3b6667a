package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// reorderHorizon bounds, in ops, how far a publish can overtake a
// subscribe or unsubscribe that another dispatcher routes: four
// dispatchers with 4096-tuple input queues hold at most ~16k ops between
// them; the horizon doubles that. A delivered set that differs from the
// in-order answer only in pairs whose subscription changed within the
// horizon of the publish is a reorder failure; any other difference is a
// failed op.
const reorderHorizon = 32768

// checkResult is the outcome of comparing a run's deliveries with the
// reference.
type checkResult struct {
	messages int64 // publishes checked
	failed   int64 // publishes and top-k subscriptions with a wrong result
	// reorder counts publishes whose delivered set differs from the
	// in-order answer only in pairs within reorderHorizon; reorderMissing
	// and reorderExtra count those pairs.
	reorder, reorderMissing, reorderExtra int64
	topKChecked, topKFailed               int64
	// fault names a harness fault (arrays overflowed): the run's output
	// cannot be trusted at all.
	fault string
	// refSeconds is the time the check took.
	refSeconds   float64
	firstFailure string
}

// add folds another round's outcome into res.
func (res *checkResult) add(o checkResult) {
	res.messages += o.messages
	res.failed += o.failed
	res.reorder += o.reorder
	res.reorderMissing += o.reorderMissing
	res.reorderExtra += o.reorderExtra
	res.topKChecked += o.topKChecked
	res.topKFailed += o.topKFailed
	if res.fault == "" {
		res.fault = o.fault
	}
	res.refSeconds += o.refSeconds
	if res.firstFailure == "" {
		res.firstFailure = o.firstFailure
	}
}

func (res *checkResult) fail(format string, args ...any) {
	res.failed++
	if res.firstFailure == "" {
		res.firstFailure = fmt.Sprintf(format, args...)
	}
}

// finalTopK holds the top-k sets read after the last op.
type finalTopK map[uint64][]uint64

// finalState sweeps expired top-k entries at the final clock, flushes and
// reads every top-k subscription's set.
func finalState(r *runner) finalTopK {
	r.c.sys.Flush()
	if !r.sp.churn {
		return nil
	}
	r.c.sys.AdvanceTopK()
	r.c.sys.Flush()
	out := finalTopK{}
	read := func(s *sub) {
		if s.topK {
			out[s.s.ID] = r.c.sys.TopKSet(s.s.ID)
		}
	}
	for i := range r.in.population {
		read(&r.in.population[i])
	}
	for i := int64(0); i < r.subs; i++ {
		read(&r.in.subOps[i])
	}
	return out
}

// check compares every delivery of a run of n ops with the reference.
func check(sp spec, in *inputs, rec *recorder, n int64, final finalTopK) checkResult {
	var res checkResult
	if rec.n.Load() > int64(len(rec.pairs)) {
		res.fault = "pair array overflowed"
	}
	if rec.tkN.Load() > int64(len(rec.tk)) {
		res.fault = "top-k event array overflowed"
	}
	pairs := rec.recorded()
	sortPairs(pairs)
	ref := newReference(region)
	t0 := time.Now()
	if sp.churn {
		checkChurn(&res, in, pairs, n, ref)
		checkTopK(&res, in, ref, rec.tk[:min(rec.tkN.Load(), int64(len(rec.tk)))], n, final)
	} else {
		checkStatic(&res, in, pairs, n, ref)
	}
	res.refSeconds = time.Since(t0).Seconds()
	return res
}

// sortPairs orders pairs by message, then subscription.
func sortPairs(ps []pair) {
	slices.SortFunc(ps, func(a, b pair) int {
		if c := cmp.Compare(a.msg, b.msg); c != 0 {
			return c
		}
		return cmp.Compare(a.sub, b.sub)
	})
}

// delivered walks sorted pairs message by message.
type delivered struct {
	pairs []pair
	k     int
}

// next returns the subscriptions delivered for message id, in order, and
// the number of pairs skipped for ids below it (messages that were never
// published).
func (d *delivered) next(id uint32) (subs []uint32, unknown int) {
	for d.k < len(d.pairs) && d.pairs[d.k].msg < id {
		d.k++
		unknown++
	}
	for d.k < len(d.pairs) && d.pairs[d.k].msg == id {
		subs = append(subs, d.pairs[d.k].sub)
		d.k++
	}
	return subs, unknown
}

// checkStatic handles publish-only streams: the standing population never
// changes, so each pool entry's expected pair set is computed once.
func checkStatic(res *checkResult, in *inputs, pairs []pair, n int64, ref *reference) {
	for i := range in.population {
		ref.insert(in.population[i].s, false, settled)
	}
	want := make([][]uint32, len(in.pool))
	for p := range in.pool {
		m := &in.pool[p]
		ref.match(ref.terms(m.Text), m.Lat, m.Lon, func(q *refQuery) {
			want[p] = append(want[p], uint32(q.id))
		})
		slices.Sort(want[p])
	}
	d := delivered{pairs: pairs}
	for i := int64(0); i < n; i++ {
		id := uint32(i + 1)
		got, unknown := d.next(id)
		if unknown > 0 {
			res.fail("%d pairs for messages never published", unknown)
		}
		res.messages++
		if w := want[i%int64(len(in.pool))]; !slices.Equal(got, w) {
			res.fail("message %d: delivered %v, expected %v", id, got, w)
		}
	}
	if _, unknown := d.next(math.MaxUint32); unknown > 0 {
		res.fail("%d pairs for messages never published", unknown)
	}
}

// checkChurn replays the churn schedule. Every subscription is indexed up
// front with the op indexes of its subscribe and unsubscribe; a publish at
// op i is due the pairs of boolean queries with insAt < i < delAt, which
// is the answer of applying the ops in submission order.
func checkChurn(res *checkResult, in *inputs, pairs []pair, n int64, ref *reference) {
	indexChurn(in, n, ref)
	d := delivered{pairs: pairs}
	var pubs int64
	var cands []*refQuery
	for i := int64(0); i < n; i++ {
		if in.kinds[i] != opPublish {
			continue
		}
		p := pubs % int64(len(in.pool))
		pubs++
		m := &in.pool[p]
		id := uint32(i + 1)
		cands = cands[:0]
		ref.match(ref.poolTerms[p], m.Lat, m.Lon, func(q *refQuery) {
			if !q.topK {
				cands = append(cands, q)
			}
		})
		slices.SortFunc(cands, func(a, b *refQuery) int { return cmp.Compare(a.id, b.id) })
		got, unknown := d.next(id)
		if unknown > 0 {
			res.fail("%d pairs for messages never published", unknown)
		}
		res.messages++
		var strict string
		var missing, extra int64
		for a, b := 0, 0; a < len(got) || b < len(cands); {
			switch {
			case b == len(cands) || (a < len(got) && uint64(got[a]) < cands[b].id):
				strict = fmt.Sprintf("pair with subscription %d, which does not match", got[a])
				a++
			case a == len(got) || uint64(got[a]) > cands[b].id:
				q := cands[b]
				if q.liveAt(i) {
					if !q.nearChange(i) {
						strict = fmt.Sprintf("missing subscription %d (subscribed at op %d)", q.id, q.insAt)
					}
					missing++
				}
				b++
			default:
				q := cands[b]
				if a+1 < len(got) && got[a+1] == got[a] {
					strict = fmt.Sprintf("subscription %d delivered twice", got[a])
				}
				if !q.liveAt(i) {
					if !q.nearChange(i) {
						strict = fmt.Sprintf("subscription %d is not live (ops %d to %d)", q.id, q.insAt, q.delAt)
					}
					extra++
				}
				for a < len(got) && uint64(got[a]) == q.id {
					a++
				}
				b++
			}
		}
		switch {
		case strict != "":
			res.fail("message %d (op %d): %s", id, i, strict)
		case missing+extra > 0:
			res.reorder++
			res.reorderMissing += missing
			res.reorderExtra += extra
		}
	}
	if _, unknown := d.next(math.MaxUint32); unknown > 0 {
		res.fail("%d pairs for messages never published", unknown)
	}
}

// indexChurn indexes the population and every subscription op of the
// first n ops with its op indexes.
func indexChurn(in *inputs, n int64, ref *reference) {
	for i := range in.population {
		ref.insert(in.population[i].s, in.population[i].topK, settled)
	}
	var subs int64
	for i := int64(0); i < n; i++ {
		switch in.kinds[i] {
		case opSubscribe:
			s := &in.subOps[subs]
			ref.insert(s.s, s.topK, i)
		case opUnsubscribe:
			ref.remove(in.subOps[subs].s.ID, i)
		}
		if in.kinds[i] != opPublish {
			subs++
		}
	}
	ref.poolTerms = make([][]uint32, len(in.pool))
	for p := range in.pool {
		ref.poolTerms[p] = ref.terms(in.pool[p].Text)
	}
}

// liveAt reports whether the query is subscribed at op i in submission
// order.
func (q *refQuery) liveAt(i int64) bool { return q.insAt < i && i < q.delAt }

// nearChange reports whether the query was subscribed or unsubscribed
// within reorderHorizon ops of op i.
func (q *refQuery) nearChange(i int64) bool {
	return abs64(i-q.insAt) <= reorderHorizon || abs64(i-q.delAt) <= reorderHorizon
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// checkTopK checks the properties every valid top-k method has: a set
// holds min(k, matching messages in the window) members, every member
// matches and is inside the window, and replaying the OnTopK events
// reproduces TopKSet. A subscription refills from the retained window, so
// an in-window match published before its subscribe may be a member; one
// published past its reorder horizon must be counted. Each top-k
// subscription with a wrong set is one failed op.
func checkTopK(res *checkResult, in *inputs, ref *reference, events []topKEvent, n int64, final finalTopK) {
	replay := map[uint64]map[uint64]bool{}
	for _, e := range events {
		s := replay[e.sub]
		if s == nil {
			s = map[uint64]bool{}
			replay[e.sub] = s
		}
		if e.entered {
			s[e.msg] = true
		} else {
			delete(s, e.msg)
		}
	}
	// Publishes after op firstLive are inside the final window.
	firstLive := n - 1 - int64(churnTopKWindow/churnTick)
	inWindow := map[uint64]map[uint64]bool{}
	counted := map[uint64][]uint64{}
	var pubs int64
	for i := int64(0); i < n; i++ {
		if in.kinds[i] != opPublish {
			continue
		}
		p := pubs % int64(len(in.pool))
		pubs++
		if i <= firstLive {
			continue
		}
		m := &in.pool[p]
		id := uint64(i + 1)
		ref.match(ref.poolTerms[p], m.Lat, m.Lon, func(q *refQuery) {
			if !q.topK || i >= q.delAt {
				return
			}
			if inWindow[q.id] == nil {
				inWindow[q.id] = map[uint64]bool{}
			}
			inWindow[q.id][id] = true
			if i > q.insAt+reorderHorizon {
				counted[q.id] = append(counted[q.id], id)
			}
		})
	}
	ids := make([]uint64, 0, len(final))
	for id := range final {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		set := final[id]
		res.topKChecked++
		if bad := topKFault(&ref.qs[ref.slot[id]], set, replay[id], inWindow[id], counted[id], n); bad != "" {
			res.topKFailed++
			res.fail("top-k subscription %d: %s", id, bad)
		}
	}
}

// topKFault describes what is wrong with one subscription's final set,
// or returns "".
func topKFault(q *refQuery, set []uint64, replayed, inWindow map[uint64]bool, counted []uint64, n int64) string {
	if len(replayed) != len(set) {
		return fmt.Sprintf("events replay to %d members, TopKSet has %d", len(replayed), len(set))
	}
	for _, m := range set {
		if !replayed[m] {
			return fmt.Sprintf("member %d missing from the event replay", m)
		}
	}
	if q.delAt < n {
		if len(set) != 0 {
			return fmt.Sprintf("unsubscribed at op %d but holds %d members", q.delAt, len(set))
		}
		return ""
	}
	if len(set) > churnTopKK {
		return fmt.Sprintf("%d members for k=%d", len(set), churnTopKK)
	}
	for _, m := range set {
		if !inWindow[m] {
			return fmt.Sprintf("member %d does not match or is outside the window", m)
		}
	}
	if len(set) < churnTopKK {
		for _, m := range counted {
			if !slices.Contains(set, m) {
				return fmt.Sprintf("%d members, but in-window match %d is left out", len(set), m)
			}
		}
	}
	return ""
}
