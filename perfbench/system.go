package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"ps2stream"
	"ps2stream/internal/node"
)

// region is the TWEETS-US space (workload.TweetsUS bounds).
var region = ps2stream.NewRegion(-125, 24, -66, 49)

// recorder takes every delivery into preallocated arrays, with one
// atomic add per delivery and no lock or map, so the harness stays out of
// the numbers. During open-loop phases each pair also carries its arrival
// time for the latency percentiles.
type recorder struct {
	pairs []pair
	n     atomic.Int64 // deliveries so far; beyond len(pairs) they are lost

	base   time.Time
	timing atomic.Bool

	tkN atomic.Int64
	tk  []topKEvent
}

// pair is one delivered match. Message and subscription ids of every
// workload fit 32 bits.
type pair struct {
	msg, sub uint32
	at       int64 // ns since recorder.base, 0 outside open-loop phases
}

type topKEvent struct {
	sub, msg uint64
	entered  bool
}

// newRecorder sizes the arrays for a run of the given length; the
// closed loop stops before the pair array fills. The arrays live outside
// the Go heap, so their size does not pace the program's garbage
// collector, and only the pages a run writes count in its RSS.
func newRecorder(churn bool, seconds float64) (*recorder, error) {
	r := &recorder{base: time.Now()}
	var err error
	if r.pairs, err = offHeap[pair](1<<20 + int(seconds*600000)); err != nil {
		return nil, err
	}
	if churn {
		if r.tk, err = offHeap[topKEvent](1<<20 + int(seconds*100000)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// offHeap maps a zeroed array of n pointer-free values outside the Go
// heap. It stays mapped until the process exits.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap recorder: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

func (r *recorder) onMatch(m ps2stream.Match) {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.pairs)) {
		return
	}
	var at int64
	if r.timing.Load() {
		at = int64(time.Since(r.base))
	}
	r.pairs[i] = pair{msg: uint32(m.MessageID), sub: uint32(m.SubscriptionID), at: at}
}

// recorded returns the pairs delivered so far.
func (r *recorder) recorded() []pair {
	n := r.n.Load()
	if n > int64(len(r.pairs)) {
		n = int64(len(r.pairs))
	}
	return r.pairs[:n]
}

// onTopK runs under the program's top-k board lock, so the slot order
// is the delivery order.
func (r *recorder) onTopK(u ps2stream.TopKUpdate) {
	if i := r.tkN.Add(1) - 1; i < int64(len(r.tk)) {
		r.tk[i] = topKEvent{sub: u.SubscriptionID, msg: u.MessageID, entered: u.Event == ps2stream.TopKEntered}
	}
}

// cluster is one opened system, with its loopback worker nodes for the
// wire workload.
type cluster struct {
	sys    *ps2stream.System
	cancel context.CancelFunc
	nodes  sync.WaitGroup
}

// openCluster opens the system with the default topology (8 workers, 4
// dispatchers, 2 mergers). With remote set, every worker task is an
// internal/node serve loop behind loopback TCP inside this process.
func openCluster(sp spec, in *inputs, rec *recorder, now func() time.Time, admin bool) (*cluster, error) {
	c := &cluster{cancel: func() {}}
	opts := ps2stream.Options{
		Region:            region,
		SeedMessages:      in.seedMsgs,
		SeedSubscriptions: in.seedSubs,
		OnMatch:           rec.onMatch,
		Now:               now,
	}
	if sp.churn {
		opts.OnTopK = rec.onTopK
	}
	if admin {
		opts.AdminAddr = "127.0.0.1:0"
	}
	if sp.remote {
		ctx, cancel := context.WithCancel(context.Background())
		c.cancel = cancel
		for i := 0; i < 8; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				c.close()
				return nil, fmt.Errorf("listen: %w", err)
			}
			c.nodes.Add(1)
			go func() {
				defer c.nodes.Done()
				_ = node.NewWorker(node.WorkerOptions{}).Serve(ctx, ln)
			}()
			opts.RemoteWorkers = append(opts.RemoteWorkers, ln.Addr().String())
		}
	}
	sys, err := ps2stream.Open(opts)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("open: %w", err)
	}
	c.sys = sys
	return c, nil
}

// close shuts the system, then its nodes, and waits for the nodes' serve
// loops to end.
func (c *cluster) close() error {
	var err error
	if c.sys != nil {
		err = c.sys.Close()
	}
	c.cancel()
	c.nodes.Wait()
	return err
}

// setup opens a cluster and registers the standing population, ending
// with Flush. It returns the cluster and the set-up time.
func setup(sp spec, in *inputs, rec *recorder, now func() time.Time, admin bool) (*cluster, float64, error) {
	t0 := time.Now()
	c, err := openCluster(sp, in, rec, now, admin)
	if err != nil {
		return nil, 0, err
	}
	for i := range in.population {
		p := &in.population[i]
		if p.topK {
			err = c.sys.SubscribeTopK(p.s, churnTopKK, churnTopKWindow)
		} else {
			err = c.sys.Subscribe(p.s)
		}
		if err != nil {
			c.close()
			return nil, 0, fmt.Errorf("subscribe %d: %w", p.s.ID, err)
		}
	}
	c.sys.Flush()
	return c, time.Since(t0).Seconds(), nil
}
