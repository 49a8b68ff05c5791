package main

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/access"
	"repro/internal/graph"
)

// This file holds the access stacks the benchmark hands to the daemons'
// Options.NewClient: the paced crawl connection of crawl-fleet, and the
// traced decorator that times every call into the access layer.

// crawlConn serializes one daemon's API calls through a crawl quota of
// 1/latency calls per second. Like the repository's distributed-crawl
// benchmark it sleeps per tick, not per call: calls pass at once while the
// quota's clock is less than a tick ahead of real time, and a call that
// would put it further ahead sleeps until it is due. Oversleep is credited
// (up to a tick), so the modeled rate holds even though sleeps overshoot
// on a loaded host.
type crawlConn struct {
	inner   access.Client
	latency time.Duration

	mu     sync.Mutex
	due    time.Time    // when the quota has paid for every call so far
	waited atomic.Int64 // nanoseconds callers spent waiting for quota
}

const crawlTick = time.Millisecond

func (c *crawlConn) call() {
	start := time.Now()
	c.mu.Lock()
	now := time.Now()
	if floor := now.Add(-crawlTick); c.due.Before(floor) {
		c.due = floor // idle time earns at most one tick of burst
	}
	c.due = c.due.Add(c.latency)
	if ahead := c.due.Sub(now); ahead > crawlTick {
		time.Sleep(ahead)
	}
	c.mu.Unlock()
	c.waited.Add(int64(time.Since(start)))
}

func (c *crawlConn) Degree(v int32) int            { c.call(); return c.inner.Degree(v) }
func (c *crawlConn) Neighbors(v int32) []int32     { c.call(); return c.inner.Neighbors(v) }
func (c *crawlConn) Neighbor(v int32, i int) int32 { c.call(); return c.inner.Neighbor(v, i) }
func (c *crawlConn) HasEdge(u, v int32) bool       { c.call(); return c.inner.HasEdge(u, v) }
func (c *crawlConn) RandomNode(r *rand.Rand) int32 { c.call(); return c.inner.RandomNode(r) }

// accessTally accumulates the traced decorator's calls and the time spent
// inside them, across every client one daemon hands out. It times one call
// in every `every` and scales: two clock reads per call would slow a free
// in-memory walk several-fold. The counters are striped by the calling
// goroutine's stack address, so the walkers sharing a job's client rarely
// write the same cache line, which would cost more than the calls counted.
type accessTally struct {
	every   int64
	stripes [tallyStripes]tallyStripe
}

const tallyStripes = 32

type tallyStripe struct {
	calls, nanos atomic.Int64
	_            [48]byte // pads the stripe to its own cache line
}

// timed counts a call and returns its stripe when the call is to be timed,
// nil otherwise.
func (t *accessTally) timed() *tallyStripe {
	var onStack byte // goroutine stacks are at least 8 KiB apart
	s := &t.stripes[uintptr(unsafe.Pointer(&onStack))>>13%tallyStripes]
	if s.calls.Add(1)%t.every != 0 {
		return nil
	}
	return s
}

// since records a timed call that began at start, less what the clock
// reads itself.
func (t *accessTally) since(s *tallyStripe, start time.Time) {
	s.nanos.Add(t.every * int64(time.Since(start)-clockCost))
}

// totals sums the stripes: calls made and nanoseconds spent in them.
func (t *accessTally) totals() (calls, nanos int64) {
	for i := range t.stripes {
		calls += t.stripes[i].calls.Load()
		nanos += t.stripes[i].nanos.Load()
	}
	return calls, nanos
}

// clockCost is what timing an empty interval reads: the clock's own share
// of every timed call, not the access layer's.
var clockCost = func() time.Duration {
	ds := make([]float64, 1001)
	for i := range ds {
		t := time.Now()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}()

// tracedClient counts every call into the wrapped access stack and times a
// sample of them.
type tracedClient struct {
	inner access.Client
	tally *accessTally
}

func (c *tracedClient) Degree(v int32) int {
	s := c.tally.timed()
	if s == nil {
		return c.inner.Degree(v)
	}
	t := time.Now()
	d := c.inner.Degree(v)
	c.tally.since(s, t)
	return d
}

func (c *tracedClient) Neighbors(v int32) []int32 {
	s := c.tally.timed()
	if s == nil {
		return c.inner.Neighbors(v)
	}
	t := time.Now()
	ns := c.inner.Neighbors(v)
	c.tally.since(s, t)
	return ns
}

func (c *tracedClient) Neighbor(v int32, i int) int32 {
	s := c.tally.timed()
	if s == nil {
		return c.inner.Neighbor(v, i)
	}
	t := time.Now()
	u := c.inner.Neighbor(v, i)
	c.tally.since(s, t)
	return u
}

func (c *tracedClient) HasEdge(u, v int32) bool {
	s := c.tally.timed()
	if s == nil {
		return c.inner.HasEdge(u, v)
	}
	t := time.Now()
	ok := c.inner.HasEdge(u, v)
	c.tally.since(s, t)
	return ok
}

func (c *tracedClient) RandomNode(r *rand.Rand) int32 {
	s := c.tally.timed()
	if s == nil {
		return c.inner.RandomNode(r)
	}
	t := time.Now()
	v := c.inner.RandomNode(r)
	c.tally.since(s, t)
	return v
}

// tracedCounter is a tracedClient over a client that also counts common
// neighbors. Keeping the capability keeps the walk kernel on the same
// code path it takes without tracing.
type tracedCounter struct {
	*tracedClient
	cc access.CommonCounter
}

func (c tracedCounter) CommonNeighborCount(u, v int32) int {
	s := c.tally.timed()
	if s == nil {
		return c.cc.CommonNeighborCount(u, v)
	}
	t := time.Now()
	n := c.cc.CommonNeighborCount(u, v)
	c.tally.since(s, t)
	return n
}

// traceClient wraps inner, forwarding access.CommonCounter when inner has it.
func traceClient(inner access.Client, tally *accessTally) access.Client {
	tc := &tracedClient{inner: inner, tally: tally}
	if cc, ok := inner.(access.CommonCounter); ok {
		return tracedCounter{tracedClient: tc, cc: cc}
	}
	return tc
}

// accessStack is one daemon's Options.NewClient: the plain in-memory
// client, or a Memo over the daemon's own crawl connection, optionally
// behind the traced decorator.
type accessStack struct {
	crawl *crawlConn   // nil: free in-memory access
	tally *accessTally // nil: untraced

	mu    sync.Mutex
	memos []*access.Memo
}

func (s *accessStack) newClient(g *graph.Graph) access.Client {
	var c access.Client = access.NewGraphClient(g)
	if s.crawl != nil {
		// One connection (and quota) per daemon, one Memo per job.
		s.mu.Lock()
		if s.crawl.inner == nil {
			s.crawl.inner = c
		}
		m := access.NewMemo(s.crawl)
		if s.tally != nil {
			s.memos = append(s.memos, m) // kept for memo_hit_ratio
		}
		s.mu.Unlock()
		c = m
	}
	if s.tally != nil {
		c = traceClient(c, s.tally)
	}
	return c
}

// memoStats sums the Memo counters of every client handed out so far.
func (s *accessStack) memoStats() access.MemoStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st access.MemoStats
	for _, m := range s.memos {
		ms := m.Stats()
		st.Lookups += ms.Lookups
		st.InnerFetches += ms.InnerFetches
	}
	return st
}

// spanTally times each request a handler serves (the traced worker
// endpoint).
type spanTally struct {
	count atomic.Int64
	nanos atomic.Int64
}

func (s *spanTally) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		s.count.Add(1)
		s.nanos.Add(int64(time.Since(t)))
	})
}
