package main

import (
	"strings"
	"time"

	"ps2stream"
	"ps2stream/internal/model"
	"ps2stream/internal/workload"
)

// Input make-up. Every value here is fixed per workload; only --seed
// varies the draws. The README lists the same figures.
const (
	seedSampleObjects = 2000 // SeedMessages handed to Open
	seedSampleQueries = 2000 // SeedSubscriptions handed to Open
	poolSize          = 1 << 15

	churnTopKFraction = 0.1
	churnTopKK        = 10
	churnTopKWindow   = 60 * time.Second
	// churnTick is the fake-clock advance per op: the window above spans
	// churnTopKWindow/churnTick = 60000 ops.
	churnTick = time.Millisecond
	// churnAdvanceEvery is the op count between AdvanceTopK calls.
	churnAdvanceEvery = 8192
)

// spec describes one workload's fixed shape.
type spec struct {
	name   string
	mu     int  // standing subscriptions registered during set-up
	remote bool // every worker task behind loopback TCP
	churn  bool // subscribe/unsubscribe interleaved with publishes
	// nominalRate and highRate are the open-loop rates (ops/s). Each
	// paced op costs several times its closed-loop CPU, so the high rate
	// keeps the process well below its two cores' worth on a 2-core
	// machine: near saturation, host contention turns into backlog and
	// the latency of one run no longer predicts the next.
	nominalRate, highRate float64
	// maxRate caps the closed loop's ops per second for a workload whose
	// op schedule is generated in advance (churn); 0 leaves it open.
	maxRate float64
}

var specs = []spec{
	{name: "ingest", mu: 20000, nominalRate: 10000, highRate: 40000},
	{name: "wire", mu: 20000, remote: true, nominalRate: 5000, highRate: 20000},
	{name: "churn", mu: 100000, churn: true, nominalRate: 3000, highRate: 10000, maxRate: 150000},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sub is one subscription as the generator made it: the public value the
// benchmark submits, plus its top-k shape.
type sub struct {
	s    ps2stream.Subscription
	topK bool
}

// opKind is the kind of one op in the timed stream.
type opKind uint8

const (
	opPublish opKind = iota
	opSubscribe
	opUnsubscribe
)

// inputs holds everything a run submits, converted to public API values
// before any timer starts.
type inputs struct {
	seedMsgs []ps2stream.Message
	seedSubs []ps2stream.Subscription
	// population is the standing set registered during set-up.
	population []sub
	// pool holds the message bodies the timed stream cycles through; each
	// publish gives its pool entry a fresh id.
	pool []ps2stream.Message
	// kinds is the churn op schedule (nil for publish-only workloads);
	// subOps holds the subscription of each non-publish op, in order.
	kinds  []opKind
	subOps []sub
}

func toMessage(o *model.Object) ps2stream.Message {
	return ps2stream.Message{ID: o.ID, Text: strings.Join(o.Terms, " "), Lat: o.Loc.Y, Lon: o.Loc.X}
}

func toSub(q *model.Query) sub {
	r := q.Region
	return sub{
		s: ps2stream.Subscription{
			ID:         q.ID,
			Query:      q.Expr.String(),
			Region:     ps2stream.Region{MinLat: r.Min.Y, MinLon: r.Min.X, MaxLat: r.Max.Y, MaxLon: r.Max.X},
			Subscriber: q.Subscriber,
		},
		topK: q.IsTopK(),
	}
}

// makeInputs draws a workload's inputs from the seed: TWEETS-US-shaped
// messages and the paper's Q1 subscriptions (internal/workload).
// For churn the schedule holds ops ops.
func makeInputs(sp spec, seed int64, ops int64) *inputs {
	ds := workload.TweetsUS()
	in := &inputs{}
	og := workload.NewGenerator(ds, seed^0xABCD)
	qg := workload.NewQueryGenerator(ds, workload.Q1, seed^0xDCBA)
	for i := 0; i < seedSampleObjects; i++ {
		in.seedMsgs = append(in.seedMsgs, toMessage(og.Object()))
	}
	for i := 0; i < seedSampleQueries; i++ {
		in.seedSubs = append(in.seedSubs, toSub(qg.Query()).s)
	}
	cfg := workload.StreamConfig{Mu: sp.mu, Seed: seed}
	if sp.churn {
		cfg.TopKFraction = churnTopKFraction
		cfg.TopKK = churnTopKK
		cfg.TopKWindow = churnTopKWindow
	}
	st := workload.NewStream(ds, workload.Q1, cfg)
	for _, op := range st.Prewarm(sp.mu) {
		in.population = append(in.population, toSub(op.Query))
	}
	if !sp.churn {
		og := st.ObjectGen()
		in.pool = make([]ps2stream.Message, poolSize)
		for i := range in.pool {
			in.pool[i] = toMessage(og.Object())
		}
		return in
	}
	// Churn follows workload.Stream.Next: five publishes per insert or
	// delete. Published bodies come from the first poolSize objects the
	// stream draws; later objects only keep the stream's draws aligned.
	in.kinds = make([]opKind, ops)
	for i := range in.kinds {
		op := st.Next()
		switch op.Kind {
		case model.OpObject:
			in.kinds[i] = opPublish
			if len(in.pool) < poolSize {
				in.pool = append(in.pool, toMessage(op.Obj))
			}
		case model.OpInsert:
			in.kinds[i] = opSubscribe
			in.subOps = append(in.subOps, toSub(op.Query))
		case model.OpDelete:
			in.kinds[i] = opUnsubscribe
			in.subOps = append(in.subOps, toSub(op.Query))
		}
	}
	return in
}
