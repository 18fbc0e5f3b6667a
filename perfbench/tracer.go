package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"ps2stream/internal/dedup"
	"ps2stream/internal/geo"
	"ps2stream/internal/gi2"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/load"
	"ps2stream/internal/metrics"
	"ps2stream/internal/model"
	"ps2stream/internal/obs"
	"ps2stream/internal/partition"
	"ps2stream/internal/textutil"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

// tracer gathers the per-layer metrics of a traced run. It reads the
// program's /statsz at phase boundaries (the traced run alone sets
// Options.AdminAddr), samples the worker queue depth during the high
// phase, and after the run times each layer's public functions on the
// run's own inputs from this file. Nothing inside the program changes.
type tracer struct {
	r *runner

	// Scrapes after set-up, after the capacity phase, after the nominal
	// phase and after the high phase.
	scrapes []statsz
	opsAt   []int64

	stop      chan struct{}
	sampling  sync.WaitGroup
	queueMax  float64
	scrapeErr error
}

// statsz is one /statsz body, keyed for lookup.
type statsz []metrics.JSONSeries

func (t *tracer) fetch() statsz {
	resp, err := http.Get("http://" + t.r.c.sys.AdminAddr() + "/statsz")
	if err != nil {
		t.scrapeErr = err
		return nil
	}
	defer resp.Body.Close()
	var body obs.Statsz
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.scrapeErr = err
		return nil
	}
	return body.Series
}

// sum adds the values (counters, gauges) or, with hist set, the sums of
// histogram series named name whose labels include every given pair.
func (s statsz) sum(name string, hist bool, labels ...string) (v float64, count int64) {
	for _, se := range s {
		if se.Name != name || !hasLabels(se.Labels, labels) {
			continue
		}
		switch {
		case hist && se.Sum != nil:
			v += *se.Sum
			count += *se.Count
		case !hist && se.Value != nil:
			v += *se.Value
		}
	}
	return v, count
}

func hasLabels(have map[string]string, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if have[want[i]] != want[i+1] {
			return false
		}
	}
	return true
}

func (t *tracer) mark() {
	t.scrapes = append(t.scrapes, t.fetch())
	t.opsAt = append(t.opsAt, t.r.next)
}

func (t *tracer) attach(r *runner) {
	t.r = r
	t.mark()
}

func (t *tracer) afterCapacity() { t.mark() }

// startSampling marks the end of the nominal phase and samples the
// worker queue depth every 20 ms until stopSampling.
func (t *tracer) startSampling() {
	t.mark()
	t.stop = make(chan struct{})
	t.sampling.Add(1)
	go func() {
		defer t.sampling.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				if v := t.fetch().maxQueue(); v > t.queueMax {
					t.queueMax = v
				}
			}
		}
	}()
}

// maxQueue is the deepest worker input queue, in batches.
func (s statsz) maxQueue() float64 {
	var m float64
	for _, se := range s {
		if se.Name == "ps2_queue_depth_batches" && se.Labels["bolt"] == "worker" && se.Value != nil && *se.Value > m {
			m = *se.Value
		}
	}
	return m
}

func (t *tracer) stopSampling() {
	close(t.stop)
	t.sampling.Wait()
}

// scrape marks the end of the high phase.
func (t *tracer) scrape() { t.mark() }

// delta is a series' growth between scrapes a and b.
func (t *tracer) delta(a, b int, name string, hist bool, labels ...string) (v float64, count int64) {
	v1, c1 := t.scrapes[b].sum(name, hist, labels...)
	v0, c0 := t.scrapes[a].sum(name, hist, labels...)
	return v1 - v0, c1 - c0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics assembles every per-layer metric. The layer timings run here,
// after the system is closed, on the run's own inputs.
func (t *tracer) metrics(res *result) (map[string]metric, error) {
	if t.scrapeErr != nil {
		return nil, fmt.Errorf("/statsz: %w", t.scrapeErr)
	}
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Core stages and internal/stream, from /statsz. Stage costs cover
	// the capacity phase, where the bottleneck stage sets the rate.
	capOps := float64(t.opsAt[1] - t.opsAt[0])
	for _, st := range []string{"dispatch", "worker", "merge"} {
		s, _ := t.delta(0, 1, "ps2_stage_seconds", true, "stage", st)
		put("stage."+st+"_us_per_op", ratio(s*1e6, capOps), "us")
	}
	// Tuples per dispatcher batch in the nominal phase, where paced
	// arrivals fill batches only partly.
	routed, _ := t.delta(1, 2, "ps2_ops_processed_total", false)
	_, batches := t.delta(1, 2, "ps2_stage_seconds", true, "stage", "dispatch")
	put("stream.tuples_per_batch", ratio(routed, float64(batches)), "tuples")
	put("stage.worker_queue_depth_max", t.queueMax, "batches")
	dups, _ := t.delta(0, 3, "ps2_matches_duplicates_total", false)
	emitted, _ := t.delta(0, 3, "ps2_matches_emitted_total", false)
	put("merge.duplicate_ratio", ratio(dups, emitted), "ratio")
	frames, _ := t.delta(0, 3, "ps2_wire_frames_total", false)
	put("wire.frames_per_op", ratio(frames, float64(t.opsAt[3]-t.opsAt[0])), "frames/op")

	// Harness and check.
	late := max(res.nominal.lateMax, res.high.lateMax)
	put("gen.late_ms_max", float64(late.Microseconds())/1e3, "ms")
	put("ingress.publish_call_us", res.nominal.publishCallUs(), "us")
	put("check.reorder_failed_ops", float64(res.check.reorder), "count")

	if err := layerTimings(t.r.in, put); err != nil {
		return nil, err
	}
	put("baseline.single_thread_ops_s", baseline(t.r.in, t.r.next), "ops/s")
	return out, nil
}

// timeLoop runs f over 0..n-1 repeatedly for at least minTime and returns
// ns per call.
func timeLoop(n int, f func(i int)) float64 {
	const minTime = 200 * time.Millisecond
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < minTime {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// layerTimings times each layer's public functions on the run's inputs.
func layerTimings(in *inputs, put func(string, float64, string)) error {
	bounds := geo.NewRect(region.MinLon, region.MinLat, region.MaxLon, region.MaxLat)

	// ps2stream ingress: what Publish and Subscribe do before Submit.
	var sink int
	put("ingress.tokenize_ns", timeLoop(len(in.pool), func(i int) { sink += len(textutil.Tokenize(in.pool[i].Text)) }), "ns")
	queries := make([]*model.Query, len(in.population))
	put("ingress.parse_ns", timeLoop(len(in.population), func(i int) {
		e, err := model.ParseExpr(in.population[i].s.Query)
		if err != nil {
			panic(err) // the generator's expressions always parse
		}
		sink += len(e.Conj)
	}), "ns")
	for i := range in.population {
		queries[i] = toQuery(in.population[i])
	}
	objs := make([]*model.Object, len(in.pool))
	for i := range in.pool {
		m := &in.pool[i]
		objs[i] = &model.Object{ID: uint64(i + 1), Terms: textutil.Tokenize(m.Text), Loc: geo.Point{X: m.Lon, Y: m.Lat}}
	}

	// internal/hybrid dispatch, on the assignment Open builds from the
	// same seed sample.
	seedObjs := make([]*model.Object, len(in.seedMsgs))
	for i := range in.seedMsgs {
		m := &in.seedMsgs[i]
		seedObjs[i] = &model.Object{ID: m.ID, Terms: textutil.Tokenize(m.Text), Loc: geo.Point{X: m.Lon, Y: m.Lat}}
	}
	seedQrys := make([]*model.Query, len(in.seedSubs))
	for i := range in.seedSubs {
		seedQrys[i] = toQuery(sub{s: in.seedSubs[i]})
	}
	sample := partition.NewSample(seedObjs, seedQrys, bounds, load.Costs{})
	const workers = 8
	asg, err := hybrid.Builder{}.Build(sample, workers)
	if err != nil {
		return fmt.Errorf("hybrid build: %w", err)
	}
	routes := make([][]int, len(queries))
	t0 := time.Now()
	for i, q := range queries {
		routes[i] = asg.RouteQuery(q, true)
	}
	put("dispatch.route_query_ns", float64(time.Since(t0).Nanoseconds())/float64(len(queries)), "ns")
	replicas := 0
	for _, r := range routes {
		replicas += len(r)
	}
	put("dispatch.query_replicas", ratio(float64(replicas), float64(len(queries))), "workers")
	fan := make([][]int, len(objs))
	put("dispatch.route_object_ns", timeLoop(len(objs), func(i int) { fan[i] = asg.RouteObject(objs[i]) }), "ns")
	fanout := 0
	for _, f := range fan {
		fanout += len(f)
	}
	put("dispatch.fanout", ratio(float64(fanout), float64(len(objs))), "workers")

	// internal/gi2 match, on per-worker indexes filled by routing the
	// standing population.
	ixs := make([]*gi2.Index, workers)
	for w := range ixs {
		ixs[w] = gi2.New(bounds, grid.DefaultGranularity, sample.Stats)
	}
	inserts := 0
	t0 = time.Now()
	for i, q := range queries {
		for _, w := range routes[i] {
			ixs[w].Insert(q)
			inserts++
		}
	}
	put("match.insert_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(inserts)), "ns")
	probes, useful := 0, 0
	var pairs [][2]uint64
	t0 = time.Now()
	for i, o := range objs {
		for _, w := range fan[i] {
			hit := false
			ixs[w].Match(o, func(q *model.Query) {
				hit = true
				if len(pairs) < 1<<20 {
					pairs = append(pairs, [2]uint64{q.ID, o.ID})
				}
			})
			probes++
			if hit {
				useful++
			}
		}
	}
	put("match.probe_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(probes)), "ns")
	put("match.useful_probe_ratio", ratio(float64(useful), float64(probes)), "ratio")

	// internal/window top-k, with the population's top-k subscriptions
	// (every subscription as k=10 over 60 s where the workload has none).
	windowTimings(in, objs, queries, bounds, sample.Stats, put)

	deletes := 0
	t0 = time.Now()
	for i, q := range queries {
		for _, w := range routes[i] {
			ixs[w].Delete(q.ID)
			deletes++
		}
	}
	put("match.delete_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(deletes)), "ns")

	// internal/dedup, over the pairs the probes found.
	if len(pairs) > 0 {
		dw := dedup.NewWindow(1 << 15)
		put("merge.observe_ns", timeLoop(len(pairs), func(i int) {
			if dw.Observe(pairs[i]) {
				sink++
			}
		}), "ns")
	} else {
		put("merge.observe_ns", 0, "ns")
	}

	// internal/wire, on 64-op batches of the workload's publishes and
	// 64-match batches of its pairs.
	const batch = 64
	ops := make([]wire.OpEnv, batch)
	now := time.Now()
	var buf []byte
	encoded := make([][]byte, 0, len(objs)/batch)
	for b := 0; b+batch <= len(objs); b += batch {
		for k := range ops {
			ops[k] = wire.OpEnv{Op: model.Op{Kind: model.OpObject, Obj: objs[b+k], Seq: uint64(b + k)}, T0: now}
		}
		encoded = append(encoded, wire.AppendOpBatch(nil, uint64(b), ops))
	}
	opBytes := 0
	for _, e := range encoded {
		opBytes += len(e)
	}
	nb := len(encoded)
	put("wire.op_bytes", ratio(float64(opBytes), float64(nb*batch)), "B")
	put("wire.op_encode_ns", timeLoop(nb, func(i int) {
		for k := range ops {
			ops[k] = wire.OpEnv{Op: model.Op{Kind: model.OpObject, Obj: objs[i*batch+k]}, T0: now}
		}
		buf = wire.AppendOpBatch(buf[:0], uint64(i), ops)
	})/batch, "ns")
	var dec []wire.OpEnv
	put("wire.op_decode_ns", timeLoop(nb, func(i int) {
		var err error
		if dec, _, err = wire.DecodeBinOpBatch(encoded[i], dec[:0]); err != nil {
			panic(err) // the payload came from AppendOpBatch above
		}
	})/batch, "ns")
	ms := make([]wire.MatchEnv, batch)
	for k := range ms {
		p := pairs[k%max(len(pairs), 1)]
		ms[k] = wire.MatchEnv{M: model.Match{QueryID: p[0], Subscriber: p[0] % 1000, ObjectID: p[1], Worker: k % workers}, T0: now}
	}
	put("wire.match_bytes", float64(len(wire.AppendMatchBatch(nil, ms)))/batch, "B")
	put("wire.match_encode_ns", timeLoop(1024, func(int) { buf = wire.AppendMatchBatch(buf[:0], ms) })/batch, "ns")
	if sink == -1 {
		fmt.Fprintln(os.Stderr, sink)
	}
	return nil
}

func toQuery(s sub) *model.Query {
	e, err := model.ParseExpr(s.s.Query)
	if err != nil {
		panic(err) // the generator's expressions always parse
	}
	g := s.s.Region
	return &model.Query{ID: s.s.ID, Expr: e, Region: geo.NewRect(g.MinLon, g.MinLat, g.MaxLon, g.MaxLat), Subscriber: s.s.Subscriber}
}

// windowTimings times window.Store offers and expiry sweeps over the
// pool, published 1 ms apart on a fake clock, with one store holding
// every top-k subscription.
func windowTimings(in *inputs, objs []*model.Object, queries []*model.Query, bounds geo.Rect, stats *textutil.Stats, put func(string, float64, string)) {
	ix := gi2.New(bounds, grid.DefaultGranularity, stats)
	st := window.NewStore(ix.Grid(), nil, 0)
	now := time.Unix(0, churnEpoch)
	for i, q := range queries {
		if !in.population[i].topK && in.kinds != nil {
			continue
		}
		tq := *q
		tq.TopK, tq.Window = churnTopKK, churnTopKWindow
		ix.Insert(&tq)
		st.AddSub(&tq, now)
	}
	var deltas []window.Delta
	offers, produced := 0, 0
	var offerNs, advanceNs int64
	advances := 0
	for round := 0; round < 4; round++ {
		for i, o := range objs {
			at := now.Add(time.Duration(round*len(objs)+i) * churnTick)
			e := window.Entry{MsgID: uint64(round*len(objs) + i + 1), Terms: o.Terms, Loc: o.Loc, At: at}
			var found []*model.Query
			ix.Match(o, func(q *model.Query) { found = append(found, q) })
			t0 := time.Now()
			for _, q := range found {
				deltas = st.OfferInto(deltas[:0], q, e, at)
				produced += len(deltas)
			}
			st.Observe(e)
			offerNs += time.Since(t0).Nanoseconds()
			offers += len(found)
			if (i+1)%churnAdvanceEvery == 0 {
				t0 = time.Now()
				produced += len(st.Advance(at))
				advanceNs += time.Since(t0).Nanoseconds()
				advances++
			}
		}
	}
	put("window.offer_ns", ratio(float64(offerNs), float64(offers)), "ns")
	put("window.deltas_per_offer", ratio(float64(produced), float64(offers)), "deltas")
	put("window.advance_ns", ratio(float64(advanceNs), float64(advances)), "ns")
}

// baseline replays the run's ops through the reference matcher on one
// thread, in submission order, and returns its throughput: the
// single-threaded baseline.
func baseline(in *inputs, n int64) float64 {
	ref := newReference(region)
	t0 := time.Now()
	for i := range in.population {
		ref.insert(in.population[i].s, false, settled)
	}
	terms := make([][]uint32, len(in.pool))
	for p := range in.pool {
		terms[p] = ref.terms(in.pool[p].Text)
	}
	setup := time.Since(t0)
	var pubs, subs, matched int64
	t0 = time.Now()
	for i := int64(0); i < n; i++ {
		kind := opPublish
		if in.kinds != nil {
			kind = in.kinds[i]
		}
		switch kind {
		case opPublish:
			p := pubs % int64(len(in.pool))
			pubs++
			m := &in.pool[p]
			ref.match(terms[p], m.Lat, m.Lon, func(q *refQuery) {
				if q.liveAt(i) {
					matched++
				}
			})
		case opSubscribe:
			ref.insert(in.subOps[subs].s, false, i)
			subs++
		case opUnsubscribe:
			ref.remove(in.subOps[subs].s.ID, i)
			subs++
		}
	}
	el := time.Since(t0)
	fmt.Fprintf(os.Stderr, "baseline: %d ops, %d matches in %v after %v of set-up\n", n, matched, el, setup)
	return float64(n) / el.Seconds()
}
