package main

import (
	"math/rand"
	"time"

	"repro/internal/service"
)

// fullNodes is the node count of the benchmark graph: BA(200000, 5), about
// 1M edges and 8.8 MB of decoded adjacency.
const fullNodes = 200_000

// pressureCacheBytes is v2-pressure's block-cache budget at fullNodes: about
// 0.7 of the decoded adjacency, the ratio an ~11M-edge graph has under
// graphletd's default 64 MiB. Smaller graphs scale it down.
const pressureCacheBytes = 6 << 20

// crawlLatency is crawl-fleet's per-call API cost on each daemon's
// connection (20 calls per 1 ms tick).
const crawlLatency = 50 * time.Microsecond

// jobClass is one kind of estimation job in a mix.
type jobClass struct {
	k       int
	sizes   []int
	d       int
	css, nb bool
	walkers int
	steps   int // budget at full scale
}

func (c jobClass) spec(seed int64, scale float64) service.Spec {
	steps := int(float64(c.steps) * scale)
	if steps < 200 {
		steps = 200
	}
	return service.Spec{
		Graph: graphName, K: c.k, Sizes: c.sizes, D: c.d, CSS: c.css, NB: c.nb,
		Steps: steps, Walkers: c.walkers, Seed: seed,
	}
}

// workload is one traffic mix against one daemon configuration.
type workload struct {
	name       string
	v2         bool  // serve the .gcsr v2 file (else v1)
	blockCache int64 // v2 block-cache budget at fullNodes (0: graphletd default)
	durable    bool  // -data-dir with fsync, started from the fixture journal
	crawl      bool  // Memo over a paced crawl connection per daemon
	workers    int   // in-process partition workers beside the coordinator
	// stream returns the job sequence for a seed; warm is the durable
	// fixture's warm-up stream (nil otherwise).
	stream func(rng *rand.Rand, scale float64, warm []service.Spec) func() service.Spec
	warm   func(rng *rand.Rand, scale float64) []service.Spec
}

// engineClasses is engine-mix's job mix; budgets give each job about 55 ms
// on the two-CPU benchmark host.
var engineClasses = []jobClass{
	{k: 3, d: 1, walkers: 1, steps: 80_000},
	{k: 4, d: 2, css: true, walkers: 2, steps: 25_000},
	{k: 5, d: 2, css: true, walkers: 2, steps: 10_500},
	{sizes: []int{3, 4, 5}, d: 2, css: true, walkers: 2, steps: 8_000},
	{k: 4, d: 3, nb: true, walkers: 2, steps: 7_000},
}

// pressureClasses is engine-mix's mix at the budgets a thrashing block
// cache affords (about 100 µs a step).
var pressureClasses = []jobClass{
	{k: 3, d: 1, walkers: 1, steps: 800},
	{k: 4, d: 2, css: true, walkers: 2, steps: 1_200},
	{k: 5, d: 2, css: true, walkers: 2, steps: 1_000},
	{sizes: []int{3, 4, 5}, d: 2, css: true, walkers: 2, steps: 1_000},
	{k: 4, d: 3, nb: true, walkers: 2, steps: 800},
}

// durableClasses are durable-repeat's fresh jobs, about 15 ms each on the
// two-CPU benchmark host: long enough that a job queued behind another sets
// the tail, rather than the host's scheduling hiccups (with 2-5 ms jobs the
// tail's run-to-run quartile spread was 0.17-0.21 of its median). They take
// most of a run's wall time, so jobs_per_s here is partly engine-bound; the
// median job is an instant hit and measures the front door and journal.
// Costly steps keep budgets small, and with them the checkpoint records
// each run journals (one per 250 windows), so the fsynced journal is not
// saturated.
var durableClasses = []jobClass{
	{k: 5, d: 2, css: true, walkers: 1, steps: 4_000},
	{k: 4, d: 3, nb: true, walkers: 1, steps: 2_000},
}

// crawlClasses are crawl-fleet's local jobs, about 100 ms each.
var crawlClasses = []jobClass{
	{k: 3, d: 1, walkers: 2, steps: 2_000},
	{k: 4, d: 2, css: true, walkers: 2, steps: 1_800},
}

var priorities = []service.Priority{service.PriorityInteractive, service.PriorityBatch, service.PriorityBackground}

// roundRobin cycles through classes with a fresh seed per job, so no spec
// repeats and the result cache never hits.
func roundRobin(classes []jobClass) func(*rand.Rand, float64, []service.Spec) func() service.Spec {
	return func(rng *rand.Rand, scale float64, _ []service.Spec) func() service.Spec {
		i := 0
		return func() service.Spec {
			s := classes[i%len(classes)].spec(rng.Int63(), scale)
			i++
			return s
		}
	}
}

// crawlStream cycles through crawlClasses, every other round as nodes:2
// jobs. Those get twice the budget, which two workers' quotas cover in about
// the time one daemon takes for a local job, so latency has one mode.
func crawlStream(rng *rand.Rand, scale float64, _ []service.Spec) func() service.Spec {
	i := 0
	return func() service.Spec {
		c := crawlClasses[i%len(crawlClasses)]
		fanOut := i/len(crawlClasses)%2 == 1
		if fanOut {
			c.steps *= 2
		}
		s := c.spec(rng.Int63(), scale)
		if fanOut {
			s.Nodes = 2
		}
		i++
		return s
	}
}

// durableDeck is one round of durableStream, dealt in a shuffled order:
// fresh jobs (f, 15%), repeats of journaled warm-up specs (w, 60%, warm hits
// from replay) and repeats of the latest fresh spec (r, 25%, coalesced
// while it runs, a cache hit after). Dealing whole rounds gives every run
// the same mix, and fresh jobs set most of its time.
const durableDeck = "fffwwwwwwwwwwwwrrrrr"

// durableStream deals durableDeck over all three priorities. Instant hits
// are most jobs, so the median is the front door's own cost.
func durableStream(rng *rand.Rand, scale float64, warm []service.Spec) func() service.Spec {
	var (
		last  *service.Spec
		deck  []byte
		fresh int
	)
	return func() service.Spec {
		if len(deck) == 0 {
			deck = []byte(durableDeck)
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		kind := deck[0]
		deck = deck[1:]
		var s service.Spec
		switch {
		case kind == 'f' || last == nil:
			s = durableClasses[fresh%len(durableClasses)].spec(rng.Int63(), scale)
			fresh++
			cp := s
			last = &cp
		case kind == 'w':
			s = warm[rng.Intn(len(warm))]
		default:
			s = *last
		}
		s.Priority = priorities[rng.Intn(len(priorities))]
		return s
	}
}

// durableWarm is the warm-up stream whose completed jobs the fixture
// journal holds.
func durableWarm(rng *rand.Rand, scale float64) []service.Spec {
	warm := make([]service.Spec, 64)
	for i := range warm {
		warm[i] = durableClasses[i%len(durableClasses)].spec(rng.Int63(), scale)
		warm[i].Priority = priorities[i%len(priorities)]
	}
	return warm
}

var workloads = []workload{
	{
		// Every spec is distinct, on the zero-copy v1 mmap graph: per-step
		// engine cost is nearly all of each job's time, so engine work shows
		// here and nothing else moves.
		name:   "engine-mix",
		stream: roundRobin(engineClasses),
	},
	{
		// Short jobs against an fsynced journal replayed from the fixture,
		// mixing fresh specs, journaled repeats and in-run repeats over all
		// priorities: admission, scheduler, cache, append and replay
		// dominate, and the engine is a small share.
		name:    "durable-repeat",
		durable: true,
		stream:  durableStream,
		warm:    durableWarm,
	},
	{
		// Every daemon's client is a Memo over its own paced crawl
		// connection, and half the jobs fan out to two workers: API calls,
		// memo reuse and partition dispatch set latency while the CPU is
		// mostly idle, so CPU-only changes should show no change here.
		name:    "crawl-fleet",
		crawl:   true,
		workers: 2,
		stream:  crawlStream,
	},
	{
		// The v2 file under a block-cache budget below its decoded
		// adjacency: the only workload where block-cache misses set both
		// set-up (the largest-component pass) and step cost.
		name:       "v2-pressure",
		v2:         true,
		blockCache: pressureCacheBytes,
		stream:     roundRobin(pressureClasses),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
