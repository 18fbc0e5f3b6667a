package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// A run of --seconds is rounds whole rounds, each on a freshly set-up
// system with the same inputs; a round's time splits by the shares
// below. The capacity phase starts with a warm-up whose ops are checked
// but not timed.
const (
	rounds       = 3
	capSegments  = 5 // timed closed-loop segments per round
	openSegments = 5 // CPU-metered segments of an open-loop phase
	openTick     = time.Millisecond
	warmShare    = 0.05
	capShare     = 0.40
	nominalShare = 0.20
	highShare    = 0.35
)

// runner drives one workload on one system from a single goroutine.
type runner struct {
	sp  spec
	in  *inputs
	c   *cluster
	rec *recorder
	// next is the index of the next op; a publish of op i carries
	// message id i+1. The closed loop stops at closedLimit.
	next, closedLimit int64
	pubs              int64 // publishes issued (churn pool cursor)
	subs              int64 // subscription ops issued (churn)
	// clock is the fake time of churn, in ns, advanced per op.
	clock atomic.Int64
	// publishNs sums wall time inside Publish when timePublish is set.
	timePublish bool
	publishNs   int64
	publishN    int64
	failedSub   error
}

func (r *runner) now() time.Time { return time.Unix(0, r.clock.Load()) }

// issue submits op r.next.
func (r *runner) issue() {
	i := r.next
	r.next++
	kind := opPublish
	if r.in.kinds != nil {
		kind = r.in.kinds[i]
		r.clock.Store(churnEpoch + i*int64(churnTick))
		if i%churnAdvanceEvery == 0 {
			r.c.sys.AdvanceTopK()
		}
	}
	switch kind {
	case opPublish:
		m := r.in.pool[r.pubs%int64(len(r.in.pool))]
		r.pubs++
		m.ID = uint64(i + 1)
		if r.timePublish {
			t0 := time.Now()
			r.c.sys.Publish(m)
			r.publishNs += int64(time.Since(t0))
			r.publishN++
			return
		}
		r.c.sys.Publish(m)
	case opSubscribe:
		s := &r.in.subOps[r.subs]
		r.subs++
		var err error
		if s.topK {
			err = r.c.sys.SubscribeTopK(s.s, churnTopKK, churnTopKWindow)
		} else {
			err = r.c.sys.Subscribe(s.s)
		}
		if err != nil && r.failedSub == nil {
			r.failedSub = err
		}
	case opUnsubscribe:
		s := &r.in.subOps[r.subs]
		r.subs++
		if err := r.c.sys.Unsubscribe(s.s); err != nil && r.failedSub == nil {
			r.failedSub = err
		}
	}
}

// churnEpoch is the fake clock's origin (any fixed instant works).
var churnEpoch = time.Date(2017, 4, 19, 0, 0, 0, 0, time.UTC).UnixNano()

// budgetLeft reports whether the closed loop may issue another op: it
// stops short of the ops the open-loop phases need and before the
// recorder fills.
func (r *runner) budgetLeft() bool {
	return r.next < r.closedLimit && r.rec.n.Load() < int64(len(r.rec.pairs))/4*3
}

// capacity runs the closed loop: a warm-up segment, Flush, then
// capSegments segments of ops back to back, each timed until its Flush
// returns. It reports each segment's rate and the ops timed.
func (r *runner) capacity(warm, d time.Duration) (rates []float64, ops int64) {
	r.closedLoop(warm)
	r.c.sys.Flush()
	for k := 0; k < capSegments; k++ {
		first := r.next
		t0 := time.Now()
		r.closedLoop(d / capSegments)
		r.c.sys.Flush()
		rates = append(rates, float64(r.next-first)/time.Since(t0).Seconds())
		ops += r.next - first
	}
	return rates, ops
}

// closedLoop issues ops back to back for d or until the op budget ends.
func (r *runner) closedLoop(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) && r.budgetLeft() {
		for k := 0; k < 256 && r.budgetLeft(); k++ {
			r.issue()
		}
	}
}

// phase is what the open-loop phases of a run measured, pooled over
// its rounds.
type phase struct {
	rate float64
	ops  int64
	// cpu holds the CPU per op (us) of each metered segment.
	cpu []float64
	// lats holds every match's latency (ms); p50s holds each round's
	// median of them.
	lats      []float64
	p50s      []float64
	lateMax   time.Duration
	publishNs int64
	publishN  int64
}

func (p *phase) add(q phase) {
	p.rate = q.rate
	p.ops += q.ops
	p.cpu = append(p.cpu, q.cpu...)
	p.lats = append(p.lats, q.lats...)
	sort.Float64s(q.lats)
	p.p50s = append(p.p50s, quantile(q.lats, 0.5))
	p.lateMax = max(p.lateMax, q.lateMax)
	p.publishNs += q.publishNs
	p.publishN += q.publishN
}

// latency returns the median of the rounds' median latencies, which
// shrugs off one round slowed by the host, and the pooled p99 and p999,
// in ms.
func (p *phase) latency() (p50, p99, p999 float64) {
	sort.Float64s(p.lats)
	return median(p.p50s), quantile(p.lats, 0.99), quantile(p.lats, 0.999)
}

func (p *phase) publishCallUs() float64 {
	return ratio(float64(p.publishNs), float64(p.publishN)) / 1e3
}

// openOps is the burst size and op count of an open-loop phase.
func openOps(rate float64, d time.Duration) (perTick, n int64) {
	perTick = int64(rate * openTick.Seconds())
	return perTick, perTick * int64(d/openTick)
}

// openLoop sends ops at a fixed rate for d: every openTick a burst of
// rate×openTick ops falls due, and the generator sleeps between bursts.
// Latency runs from each message's due time to each OnMatch for it, so a
// late generator or a blocking Publish counts against the system.
func (r *runner) openLoop(rate float64, d time.Duration) phase {
	perTick, n := openOps(rate, d)
	res := phase{rate: rate, ops: n}
	first := r.next
	from := r.rec.n.Load()
	r.rec.timing.Store(true)
	r.publishNs, r.publishN = 0, 0
	cpu0 := cpuSeconds()
	start := time.Now().Add(openTick)
	startNs := int64(start.Sub(r.rec.base))
	dueNs := func(op int64) int64 { return startNs + op/perTick*int64(openTick) }
	// CPU per op is the median over openSegments equal runs of ops, the
	// last one ending when Flush returns.
	var cpuPerOp []float64
	segOps := n / openSegments
	segStart, segFirst := cpu0, int64(0)
	for j := int64(0); j < n; {
		if j-segFirst >= segOps && len(cpuPerOp) < openSegments-1 {
			c := cpuSeconds()
			cpuPerOp = append(cpuPerOp, (c-segStart)*1e6/float64(j-segFirst))
			segStart, segFirst = c, j
		}
		due := start.Add(time.Duration(j / perTick * int64(openTick)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(due); late > res.lateMax {
			res.lateMax = late
		}
		for end := j + perTick; j < end && j < n; j++ {
			r.issue()
		}
	}
	r.c.sys.Flush()
	r.rec.timing.Store(false)
	res.cpu = append(cpuPerOp, (cpuSeconds()-segStart)*1e6/float64(n-segFirst))
	res.publishNs, res.publishN = r.publishNs, r.publishN
	for _, p := range r.rec.recorded()[from:] {
		if op := int64(p.msg) - 1 - first; op >= 0 && op < n {
			res.lats = append(res.lats, float64(p.at-dueNs(op))/1e6)
		}
	}
	return res
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// cpuSeconds is the process's user+system CPU so far, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB is the process's peak resident set (rusage maxrss, KiB on
// Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// result is everything one run measured, before it is printed.
type result struct {
	setupS       []float64
	capacity     []float64 // segment rates
	capOps       int64
	nominal      phase
	high         phase
	rssMB        float64
	attempted    int64
	check        checkResult
	subscribeErr error
	topKEvents   int64
}

// runWorkload performs one untraced or traced run: rounds rounds of
// set-up, closed-loop capacity, the two open-loop phases and the output
// check. A traced run traces its last round.
func runWorkload(sp spec, seed int64, seconds float64, tr *tracer) (*result, error) {
	round := time.Duration(seconds / rounds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(f * float64(round)) }
	_, nominalOps := openOps(sp.nominalRate, share(nominalShare))
	_, highOps := openOps(sp.highRate, share(highShare))
	closedLimit := int64(math.MaxUint32 / 2)
	if sp.maxRate > 0 {
		closedLimit = int64(sp.maxRate * share(warmShare+capShare).Seconds())
	}
	in := makeInputs(sp, seed, closedLimit+nominalOps+highOps)
	res := &result{}
	// The checks run after the last round, so their memory stays out of
	// peak_rss_mb.
	var done []roundOut
	for k := 0; k < rounds; k++ {
		rec, err := newRecorder(sp.churn, seconds/rounds)
		if err != nil {
			return nil, err
		}
		var rt *tracer
		if k == rounds-1 {
			rt = tr
		}
		out, err := runRound(sp, in, rec, closedLimit, share, rt, res)
		if err != nil {
			return nil, err
		}
		done = append(done, out)
		runtime.GC()
	}
	res.rssMB = peakRSSMB()
	for _, d := range done {
		res.check.add(check(sp, in, d.rec, d.n, d.final))
	}
	return res, nil
}

// roundOut is what a round leaves for its check.
type roundOut struct {
	rec   *recorder
	n     int64
	final finalTopK
}

// runRound runs one round on a fresh system and folds it into res.
func runRound(sp spec, in *inputs, rec *recorder, closedLimit int64, share func(float64) time.Duration, tr *tracer, res *result) (roundOut, error) {
	r := &runner{sp: sp, in: in, rec: rec, closedLimit: closedLimit}
	r.clock.Store(churnEpoch)
	var now func() time.Time
	if sp.churn {
		now = r.now
	}
	c, s, err := setup(sp, in, rec, now, tr != nil)
	if err != nil {
		return roundOut{}, err
	}
	r.c = c
	res.setupS = append(res.setupS, s)
	if tr != nil {
		tr.attach(r)
	}
	rates, ops := r.capacity(share(warmShare), share(capShare))
	res.capacity = append(res.capacity, rates...)
	res.capOps += ops
	if tr != nil {
		tr.afterCapacity()
	}
	r.timePublish = tr != nil
	res.nominal.add(r.openLoop(sp.nominalRate, share(nominalShare)))
	if tr != nil {
		tr.startSampling()
	}
	res.high.add(r.openLoop(sp.highRate, share(highShare)))
	if tr != nil {
		tr.stopSampling()
	}
	res.attempted += r.next
	res.topKEvents += rec.tkN.Load()
	if res.subscribeErr == nil {
		res.subscribeErr = r.failedSub
	}
	final := finalState(r)
	if tr != nil {
		tr.scrape()
	}
	if err := c.close(); err != nil {
		return roundOut{}, fmt.Errorf("close: %w", err)
	}
	return roundOut{rec: rec, n: r.next, final: final}, nil
}
