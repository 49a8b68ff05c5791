// Command e2ebench is the repository's end-to-end benchmark. It starts
// graphletd in-process — wired from the constructors cmd/graphletd uses —
// and drives it over loopback HTTP with two closed-loop clients: each
// submits POST /v1/jobs, waits on GET /v1/jobs/{id}/events for the terminal
// event, and only then submits its next job.
//
// Run it from the repository root through its build script:
//
//	bash e2ebench/run.sh --workload engine-mix --seed 1 --seconds 15 --trace 0
//
// Workloads (see workloads.go for each one's reason):
//
//	engine-mix      distinct specs on the v1 mmap graph; the engine dominates
//	durable-repeat  fsync journal replayed from a fixture; cache, coalescing
//	crawl-fleet     Memo over paced crawl connections; half on two workers
//	v2-pressure     v2 graph with a block cache below its decoded adjacency
//
// Inputs come from --seed only: a Barabási–Albert graph BA(200000, 5) packed
// as .gcsr v1 and v2, the job stream, and for durable-repeat a fixture
// journal made by driving a real Manager through a warm-up stream. Fixtures
// are cached by fingerprint under the work directory and never timed.
// After the timed loop every distinct spec's reference is computed once
// with the engine directly, and every completed job must match it byte for
// byte; any other outcome counts as failed.
//
// With --trace 0 the run measures for --seconds and reports the end-to-end
// metrics. With --trace 1 it runs an untraced and then a traced pass of
// --seconds/2 each, on separately set-up daemons with the same job stream,
// and reports the per-layer metrics; the traced pass times calls into each
// layer from this package's own wrappers. The last line of standard output
// is a JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// workDir holds the fixture cache and per-run working files, relative to
// the repository root the benchmark runs from.
const workDir = ".bench_build/e2ebench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", ")+", or all (each in turn)")
	seed := fs.Int64("seed", 1, "seed of the graph, the job stream and the fixture journal")
	secs := fs.Float64("seconds", 15, "measured seconds (split over two passes with --trace 1)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	selected := []string{*workload}
	if *workload == "all" {
		selected = names
	}
	for _, name := range selected {
		cfg := config{
			workload:  name,
			seed:      *seed,
			duration:  time.Duration(*secs * float64(time.Second)),
			trace:     *trace == 1,
			workDir:   workDir,
			nodes:     fullNodes,
			stepScale: 1,
			minSetups: 3,
		}
		out, err := runWorkload(context.Background(), cfg)
		if err == nil {
			err = report(stdout, out)
		}
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the final JSON object from a run's outcome.
func summarize(out *outcome) result {
	res := result{Metrics: map[string]metricValue{}}
	passes := []*pass{out.untraced}
	if out.traced != nil {
		passes = append(passes, out.traced)
	}
	for _, p := range passes {
		for _, s := range p.samples {
			res.Attempted++
			if s.Err != "" {
				res.Failed++
			}
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	values := endToEndValues(out)
	defs := endToEnd
	if out.traced != nil {
		values, defs = out.traced.layers, perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// endToEndValues computes the end-to-end metrics from the untraced pass
// and the set-up repetitions.
func endToEndValues(out *outcome) map[string]float64 {
	p := out.untraced
	lat := latencies(p)
	tailV, _, _ := tail(lat)
	v := map[string]float64{
		"job_p50_s":         median(lat),
		"job_tail_s":        tailV,
		"setup_s":           median(seconds(out.setups)),
		"live_heap_peak_mb": float64(p.heapPeak) / 1e6,
	}
	if p.wall > 0 {
		v["jobs_per_s"] = float64(len(lat)) / p.wall.Seconds()
	}
	return v
}

// report prints the human-readable tables, then the JSON line last.
func report(w io.Writer, out *outcome) error {
	cfg := out.cfg
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%g trace=%t nodes=%d\n",
		cfg.workload, cfg.seed, cfg.duration.Seconds(), cfg.trace, cfg.nodes)
	fmt.Fprintf(w, "untimed: fixtures %.2fs, references %.2fs\n", out.fixtureTime.Seconds(), out.checkTime.Seconds())
	p := out.untraced
	lat := latencies(p)
	_, pct, n := tail(lat)
	failed := len(p.samples) - len(lat)
	values := endToEndValues(out)
	label := "end to end"
	if cfg.trace {
		label = "end to end (untraced pass)"
	}
	fmt.Fprintf(w, "%s, %d jobs over %.2fs:\n", label, len(p.samples), p.wall.Seconds())
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "job_tail_s":
			note = fmt.Sprintf("p%.1f of %d jobs", pct, n)
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(out.setups))
		}
		fmt.Fprintf(w, "  %-20s %14.6g %-6s %s\n", d.name, values[d.name], d.unit, note)
	}
	frac := 0.0
	if len(p.samples) > 0 {
		frac = float64(failed) / float64(len(p.samples))
	}
	fmt.Fprintf(w, "  %-20s %14.6g %-6s %d of %d jobs\n", "failed_frac", frac, "ratio", failed, len(p.samples))
	printFailures(w, p)
	if t := out.traced; t != nil {
		fmt.Fprintf(w, "per layer (traced pass), %d jobs over %.2fs:\n", len(t.samples), t.wall.Seconds())
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %-6s moves %s\n", d.name, t.layers[d.name], d.unit, d.moves)
		}
		printFailures(w, t)
	}
	line, err := json.Marshal(summarize(out))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printFailures lists why jobs failed, one line per distinct reason.
func printFailures(w io.Writer, p *pass) {
	reasons := map[string]int{}
	for _, s := range p.samples {
		if s.Err != "" {
			reasons[s.Err]++
		}
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  failed x%d: %s\n", reasons[k], k)
	}
}
