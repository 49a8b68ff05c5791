package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/access"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
)

// graphName is the name every daemon registers the fixture graph under.
const graphName = "ba"

// maxWalkers is the daemon's per-job walker cap (graphletd -max-walkers).
// It equals the benchmark host's two CPUs, so the default pool sizing
// (GOMAXPROCS / max-walkers) gives one job slot.
const maxWalkers = 2

// daemonOptions describes one in-process graphletd, wired from the same
// public constructors cmd/graphletd uses.
type daemonOptions struct {
	graphPath  string
	blockCache int64                            // decoded-block cache budget for v2 files (0: graphletd's default)
	dataDir    string                           // durable when set, with every journal append fsynced
	newClient  func(*graph.Graph) access.Client // nil: the in-memory client
	peers      []string
	worker     bool
	// wrapPartitions wraps the worker endpoint (traced runs time each
	// partition it serves); nil leaves it bare.
	wrapPartitions func(http.Handler) http.Handler
}

// daemon is a running in-process graphletd listening on loopback.
type daemon struct {
	url string
	reg *service.Registry
	mgr *service.Manager
	srv *http.Server

	setup      time.Duration // construction to serving
	open       time.Duration // AddFileOpts: open + largest component
	openMisses uint64        // block-cache misses during AddFileOpts
	replay     time.Duration // NewManager: journal open and replay
}

// startDaemon builds and starts a daemon; setup, open and replay time its
// phases.
func startDaemon(o daemonOptions) (*daemon, error) {
	start := time.Now()
	metrics := obs.NewRegistry()
	reg := service.NewRegistry()
	if err := reg.AddFileOpts(graphName, o.graphPath, graph.OpenOptions{BlockCacheBytes: o.blockCache}); err != nil {
		return nil, err
	}
	opened := time.Now()
	openMisses := reg.BlockCacheStats().Misses
	mgr, err := service.NewManager(reg, service.Options{
		MaxWalkers: maxWalkers,
		DataDir:    o.dataDir,
		Fsync:      o.dataDir != "",
		Metrics:    metrics,
		Peers:      o.peers,
		NewClient:  o.newClient,
	})
	if err != nil {
		closeGraph(reg)
		return nil, err
	}
	replayed := time.Now()
	api := service.NewServer(reg, mgr)
	if o.worker {
		var h http.Handler = &dist.Handler{
			Lookup: mgr.PartitionLookup(),
			Served: metrics.CounterVec("graphletd_partitions_served_total",
				"Partition requests served by this worker, by outcome.", "state"),
		}
		if o.wrapPartitions != nil {
			h = o.wrapPartitions(h)
		}
		api.Partitions = h
	}
	// The access log is on by default in graphletd; it is formatted here
	// too, then discarded.
	handler := obs.Trace(api, obs.TraceOptions{
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics: obs.NewHTTPMetrics(metrics, "graphletd"),
		PathLabel: func(r *http.Request) string {
			return service.RoutePattern(r.URL.Path)
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		closeGraph(reg)
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "daemon: serve: %v\n", err)
		}
	}()
	return &daemon{
		url:        "http://" + ln.Addr().String(),
		reg:        reg,
		mgr:        mgr,
		srv:        srv,
		setup:      time.Since(start),
		open:       opened.Sub(start),
		openMisses: openMisses,
		replay:     replayed.Sub(opened),
	}, nil
}

// close stops serving, drains the manager and unmaps the graph.
func (d *daemon) close() {
	d.srv.Close()
	d.mgr.Close()
	closeGraph(d.reg)
}

func closeGraph(reg *service.Registry) {
	if g, ok := reg.Get(graphName); ok {
		reg.Remove(graphName)
		g.Close()
	}
}

// fleet is the set of daemons one workload pass drives: the coordinator the
// clients talk to, plus any partition workers.
type fleet struct {
	coord   *daemon
	workers []*daemon
	setup   time.Duration
}

func (f *fleet) close() {
	f.coord.close()
	f.closeWorkers()
}

func (f *fleet) closeWorkers() {
	for _, w := range f.workers {
		w.close()
	}
}

// startFleet starts nWorkers partition workers, then the coordinator with
// them as peers. clientFor builds each daemon's access stack (index 0 is
// the coordinator).
func startFleet(coord daemonOptions, nWorkers int, clientFor func(i int) func(*graph.Graph) access.Client,
	wrapPartitions func(http.Handler) http.Handler) (*fleet, error) {
	start := time.Now()
	f := &fleet{}
	for i := 1; i <= nWorkers; i++ {
		w := daemonOptions{graphPath: coord.graphPath, blockCache: coord.blockCache,
			newClient: clientFor(i), worker: true, wrapPartitions: wrapPartitions}
		d, err := startDaemon(w)
		if err != nil {
			f.closeWorkers()
			return nil, err
		}
		f.workers = append(f.workers, d)
		coord.peers = append(coord.peers, d.url)
	}
	coord.newClient = clientFor(0)
	d, err := startDaemon(coord)
	if err != nil {
		f.closeWorkers()
		return nil, err
	}
	f.coord = d
	f.setup = time.Since(start)
	return f, nil
}
