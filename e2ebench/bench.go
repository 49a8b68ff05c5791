package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/access"
	"repro/internal/graph"
	"repro/internal/service"
)

// config is one benchmark run.
type config struct {
	workload  string
	seed      int64
	duration  time.Duration
	trace     bool
	workDir   string
	nodes     int     // BA graph size (fullNodes; tests use less)
	stepScale float64 // multiplies every job's step budget (1; tests use less)
	minSetups int     // daemon constructions whose median is setup_s, at least
	// tamper, when set, edits the references before results are checked
	// (tests use it to show a wrong result is counted as failed).
	tamper func(refs map[string]*reference)
}

// Set-up repetitions: at least config.minSetups, then more until their
// total reaches setupBudget, at most maxSetups.
const (
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

// instance is one started fleet plus the handles its traced pass reads.
type instance struct {
	fleet   *fleet
	stacks  []*accessStack // per daemon, coordinator first
	spans   *spanTally     // worker partition spans (traced only)
	dataDir string
}

// pass is one closed-loop measurement against one instance.
type pass struct {
	samples  []sample
	wall     time.Duration // first submission to last terminal event
	heapPeak uint64        // peak live heap, bytes
	layers   map[string]float64
}

// outcome is everything one run measured.
type outcome struct {
	cfg      config
	setups   []time.Duration
	opens    []time.Duration
	openMiss []float64
	replays  []time.Duration
	untraced *pass
	traced   *pass // nil unless cfg.trace
	// Untimed work around the measurement: building or loading fixtures,
	// and computing the references results are checked against.
	fixtureTime, checkTime time.Duration
}

// runWorkload runs one workload end to end: fixtures, the set-up
// repetitions, the untraced pass (and with cfg.trace the traced one), then
// the correctness check against the references.
func runWorkload(ctx context.Context, cfg config) (*outcome, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var warm []service.Spec
	if w.warm != nil {
		warm = w.warm(rand.New(rand.NewSource(cfg.seed^0x5eed)), cfg.stepScale)
	}
	start := time.Now()
	fx, err := loadFixture(cfg.workDir, cfg.nodes, cfg.seed, warm)
	if err != nil {
		return nil, err
	}
	out := &outcome{cfg: cfg, fixtureTime: time.Since(start)}
	runDir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	passLen := cfg.duration
	if cfg.trace {
		passLen /= 2 // an untraced and a traced pass share the run
	}
	// Set up several times (more while set-up is cheap); the last instance
	// serves the untraced pass.
	var (
		inst  *instance
		spent time.Duration
	)
	for i := 0; i < maxSetups && (i < cfg.minSetups || spent < setupBudget); i++ {
		if inst != nil {
			inst.fleet.close()
		}
		if inst, err = startInstance(w, cfg, fx, runDir, i, false); err != nil {
			return nil, err
		}
		spent += inst.fleet.setup
		out.setups = append(out.setups, inst.fleet.setup)
		out.opens = append(out.opens, inst.fleet.coord.open)
		out.openMiss = append(out.openMiss, float64(inst.fleet.coord.openMisses))
		out.replays = append(out.replays, inst.fleet.coord.replay)
	}
	out.untraced, err = runPass(ctx, inst, newStream(w, cfg, warm), passLen, false)
	inst.fleet.close()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		inst, err := startInstance(w, cfg, fx, runDir, len(out.setups), true)
		if err != nil {
			return nil, err
		}
		out.traced, err = runPass(ctx, inst, newStream(w, cfg, warm), passLen, true)
		inst.fleet.close()
		if err != nil {
			return nil, err
		}
	}
	start = time.Now()
	if err := check(fx.v1, out, cfg.tamper); err != nil {
		return nil, err
	}
	out.checkTime = time.Since(start)
	if out.traced != nil {
		addLayerMetrics(out)
	}
	return out, nil
}

// newStream is the workload's job sequence for this run's seed. Both passes
// of a traced run get the same sequence.
func newStream(w workload, cfg config, warm []service.Spec) *specSource {
	rng := rand.New(rand.NewSource(cfg.seed))
	return &specSource{next: w.stream(rng, cfg.stepScale, warm)}
}

// startInstance sets up the workload's daemons; idx names its data
// directory. Only the daemon construction is inside the fleet's setup time.
func startInstance(w workload, cfg config, fx *fixture, runDir string, idx int, traced bool) (*instance, error) {
	in := &instance{}
	co := daemonOptions{graphPath: fx.v1}
	if w.v2 {
		co.graphPath = fx.v2
		co.blockCache = w.blockCache * int64(cfg.nodes) / fullNodes
	}
	if w.durable {
		in.dataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", idx))
		if err := copyTree(fx.journal, in.dataDir); err != nil {
			return nil, fmt.Errorf("copy fixture journal: %w", err)
		}
		co.dataDir = in.dataDir
	}
	in.stacks = make([]*accessStack, 1+w.workers)
	for i := range in.stacks {
		s := &accessStack{}
		if w.crawl {
			s.crawl = &crawlConn{latency: crawlLatency}
		}
		if traced {
			// Crawl calls vary from free (a quota token) to a whole tick's
			// sleep, so time all of them; free calls are sampled.
			s.tally = &accessTally{every: 64}
			if w.crawl {
				s.tally.every = 1
			}
		}
		in.stacks[i] = s
	}
	var wrap func(http.Handler) http.Handler
	if traced {
		in.spans = &spanTally{}
		wrap = in.spans.wrap
	}
	clientFor := func(i int) func(*graph.Graph) access.Client {
		if s := in.stacks[i]; s.crawl != nil || s.tally != nil {
			return s.newClient
		}
		return nil // graphletd's default in-memory client
	}
	runtime.GC() // start every construction from the same heap state
	f, err := startFleet(co, w.workers, clientFor, wrap)
	if err != nil {
		return nil, err
	}
	in.fleet = f
	return in, nil
}

// runPass drives the closed loop for d against the instance's coordinator.
// A traced pass also reads every layer's counters around the loop.
func runPass(ctx context.Context, in *instance, src *specSource, d time.Duration, traced bool) (*pass, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	coord := in.fleet.coord
	before, err := scrape(hc, coord.url)
	if err != nil {
		return nil, err
	}
	blocksBefore := coord.reg.BlockCacheStats()
	journalBefore := dirBytes(in.dataDir)

	runtime.GC()
	heap := startHeapSampler()
	start := time.Now()
	samples := drive(ctx, hc, coord.url, src, start.Add(d))
	p := &pass{samples: samples, heapPeak: heap.stop()}
	last := start
	for _, s := range samples {
		if s.Delivered.After(last) {
			last = s.Delivered
		}
	}
	p.wall = last.Sub(start)
	if !traced {
		return p, nil
	}
	after, err := scrape(hc, coord.url)
	if err != nil {
		return nil, err
	}
	p.layers = passLayers(in, p, before, after, blocksBefore, coord.reg.BlockCacheStats(),
		dirBytes(in.dataDir)-journalBefore)
	return p, nil
}

// heapSampler polls the runtime's live-heap figure (updated at every GC)
// and keeps its peak.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: liveHeapMetric}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// median of a sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tail returns the highest percentile with at least 10 samples beyond it:
// the 11th-largest value, the percentile it sits at, and the sample count.
// Samples of ten or fewer report their maximum.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n), n
}
