package main

import (
	"time"

	"repro/internal/graph"
)

// metricDef names one reported metric. moves records, for a per-layer
// metric, the end-to-end metric and workload a change to that layer should
// move (the prediction a later change is checked against).
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of graphletd sees, reported on every
// workload from untraced passes. failed_frac is printed beside them; it is
// the JSON's failed/attempted and may be zero, so it is not gated as a
// metric.
var endToEnd = []metricDef{
	{name: "job_p50_s", unit: "s"},
	{name: "job_tail_s", unit: "s"},
	{name: "jobs_per_s", unit: "1/s"},
	{name: "setup_s", unit: "s"},
	{name: "live_heap_peak_mb", unit: "MB"},
}

// perLayer are the traced pass's metrics, named <module>.<metric>. "Per
// job" means per job whose estimation ran (cache hits and coalesced
// submissions excluded) unless it says submitted.
var perLayer = []metricDef{
	{"http.submit_s", "s", "job_p50_s on durable-repeat (median POST round trip)"},
	{"http.deliver_s", "s", "job_p50_s on durable-repeat (median FinishedAt to terminal event)"},
	{"http.errors", "count", "failed_frac on every workload"},

	{"service.queue_wait_s.interactive", "s", "job_tail_s on durable-repeat"},
	{"service.queue_wait_s.batch", "s", "job_tail_s on durable-repeat"},
	{"service.queue_wait_s.background", "s", "job_tail_s on durable-repeat"},
	{"service.run_s", "s", "job_p50_s on engine-mix (median StartedAt to FinishedAt)"},
	{"service.cache_hit_ratio", "ratio", "jobs_per_s on durable-repeat"},
	{"service.coalesced", "count", "jobs_per_s on durable-repeat"},
	{"service.runs", "count", "jobs_per_s on durable-repeat"},

	{"journal.appends", "1/job", "job_p50_s on durable-repeat (per submitted job)"},
	{"journal.append_s", "s", "job_p50_s on durable-repeat (mean per append)"},
	{"journal.fsyncs", "1/job", "job_p50_s on durable-repeat (per submitted job)"},
	{"journal.bytes_per_job", "B", "job_p50_s on durable-repeat (per submitted job)"},
	{"journal.replay_s", "s", "setup_s on durable-repeat"},

	{"core.steps", "count", "jobs_per_s on engine-mix"},
	{"core.checkpoints", "1/job", "job_p50_s on engine-mix"},
	{"core.self_s", "s", "job_p50_s and jobs_per_s on engine-mix; no change on crawl-fleet"},
	{"core.ns_per_step", "ns", "job_p50_s and jobs_per_s on engine-mix; no change on crawl-fleet"},

	{"access.calls_per_job", "1/job", "job_p50_s on crawl-fleet"},
	{"access.self_s", "s", "job_p50_s on crawl-fleet (per job, quota waits excluded)"},
	{"access.memo_hit_ratio", "ratio", "job_p50_s on crawl-fleet"},
	{"access.pace_wait_s", "s", "job_p50_s on crawl-fleet (per job: waits for the crawl quota)"},

	{"graph.open_s", "s", "setup_s on v2-pressure"},
	{"graph.open_blockcache_misses", "count", "setup_s on v2-pressure (misses of the registration pass)"},
	{"graph.blockcache_hit_ratio", "ratio", "jobs_per_s on v2-pressure; no change on engine-mix"},
	{"graph.blockcache_misses", "1/job", "jobs_per_s on v2-pressure; no change on engine-mix"},
	{"graph.blockcache_evictions", "1/job", "jobs_per_s on v2-pressure; no change on engine-mix"},

	{"dist.partitions.dispatched", "count", "job_tail_s on crawl-fleet"},
	{"dist.partitions.completed", "count", "job_tail_s on crawl-fleet"},
	{"dist.partitions.retried", "count", "job_tail_s on crawl-fleet"},
	{"dist.partitions.failed", "count", "job_tail_s on crawl-fleet"},
	{"dist.partitions.failover_local", "count", "job_tail_s on crawl-fleet"},
	{"dist.dispatch_s", "s", "job_tail_s on crawl-fleet (mean)"},
	{"dist.stream_s", "s", "job_tail_s on crawl-fleet (mean)"},
	{"dist.worker_busy_s", "s", "job_tail_s on crawl-fleet (mean per partition)"},

	{"phase.admit_s", "s", "job_p50_s (median)"},
	{"phase.queue_s", "s", "job_p50_s (median)"},
	{"phase.run_s", "s", "job_p50_s (median)"},
	{"phase.deliver_s", "s", "job_p50_s (median)"},
	{"phase.residual_s", "s", "traced job p50 minus the sum of the phase medians"},

	{"trace.job_p50_s", "s", "job_p50_s of the traced pass"},
	{"trace.jobs", "count", "jobs in the traced pass"},
	{"trace.overhead_s", "s", "traced minus untraced job p50"},
}

// runJobs returns one sample per distinct job that ran an estimation
// (coalesced submissions share their job's view).
func runJobs(samples []sample) []sample {
	seen := map[string]bool{}
	var out []sample
	for _, s := range samples {
		if s.Err != "" || s.View.StartedAt.IsZero() || seen[s.View.ID] {
			continue
		}
		seen[s.View.ID] = true
		out = append(out, s)
	}
	return out
}

// passLayers reads the per-layer counters around a traced pass.
func passLayers(in *instance, p *pass, before, after promSnapshot,
	blocksBefore, blocksAfter graph.BlockCacheStats, journalBytes int64) map[string]float64 {
	l := map[string]float64{}
	ran := runJobs(p.samples)
	runs := float64(len(ran))
	perRun := func(x float64) float64 {
		if runs == 0 {
			return 0
		}
		return x / runs
	}
	submitted := float64(len(p.samples))
	perSubmitted := func(x float64) float64 {
		if submitted == 0 {
			return 0
		}
		return x / submitted
	}

	// service
	hits := delta(before, after, "graphletd_cache_hits_total")
	if sub := delta(before, after, `graphletd_jobs_total{state="submitted"}`); sub > 0 {
		l["service.cache_hit_ratio"] = hits / sub
	}
	l["service.coalesced"] = delta(before, after, "graphletd_coalesced_total")
	l["service.runs"] = delta(before, after, "graphletd_runs_total")

	// journal
	l["journal.appends"] = perSubmitted(delta(before, after, "graphletd_journal_appends_total"))
	l["journal.append_s"] = histMean(before, after, "graphletd_journal_append_seconds")
	l["journal.fsyncs"] = perSubmitted(delta(before, after, "graphletd_journal_fsyncs_total"))
	l["journal.bytes_per_job"] = perSubmitted(float64(journalBytes))

	// access and core: walker time is each run's wall time times its walkers;
	// the part not spent inside access calls is the engine's own.
	var accessNanos, calls, waited, lookups, fetches int64
	for _, s := range in.stacks {
		c, ns := s.tally.totals()
		calls += c
		accessNanos += ns
		if s.crawl != nil {
			waited += s.crawl.waited.Load()
		}
		ms := s.memoStats()
		lookups += ms.Lookups
		fetches += ms.InnerFetches
	}
	var walkerTime time.Duration
	for _, s := range ran {
		w := s.Spec.Walkers
		if w == 0 {
			w = 1
		}
		walkerTime += time.Duration(w) * s.View.FinishedAt.Sub(s.View.StartedAt)
	}
	steps := delta(before, after, "graphletd_walk_steps_total")
	coreSelf := (walkerTime - time.Duration(accessNanos)).Seconds()
	l["core.steps"] = steps
	l["core.checkpoints"] = perRun(delta(before, after, "graphletd_walk_checkpoints_total"))
	l["core.self_s"] = perRun(coreSelf)
	if steps > 0 {
		l["core.ns_per_step"] = coreSelf * 1e9 / steps
	}
	l["access.calls_per_job"] = perRun(float64(calls))
	l["access.self_s"] = perRun(time.Duration(accessNanos - waited).Seconds())
	l["access.pace_wait_s"] = perRun(time.Duration(waited).Seconds())
	if lookups > 0 {
		l["access.memo_hit_ratio"] = 1 - float64(fetches)/float64(lookups)
	}

	// graph
	hitsB := float64(blocksAfter.Hits - blocksBefore.Hits)
	missB := float64(blocksAfter.Misses - blocksBefore.Misses)
	if hitsB+missB > 0 {
		l["graph.blockcache_hit_ratio"] = hitsB / (hitsB + missB)
	}
	l["graph.blockcache_misses"] = perRun(missB)
	l["graph.blockcache_evictions"] = perRun(float64(blocksAfter.Evictions - blocksBefore.Evictions))

	// dist
	for _, state := range []string{"dispatched", "completed", "retried", "failed", "failover_local"} {
		l["dist.partitions."+state] = delta(before, after, `graphletd_partitions_total{state="`+state+`"}`)
	}
	l["dist.dispatch_s"] = histMean(before, after, "graphletd_partition_dispatch_seconds")
	l["dist.stream_s"] = histMean(before, after, "graphletd_partition_stream_seconds")
	if n := in.spans.count.Load(); n > 0 {
		l["dist.worker_busy_s"] = time.Duration(in.spans.nanos.Load()).Seconds() / float64(n)
	}
	return l
}

// phases splits a completed job's latency at the client clock and the
// JobView timestamps: admit (to CreatedAt), queue (to StartedAt), run (to
// FinishedAt) and deliver (to the terminal event). Points earlier than the
// one before (a coalesced job was created before this submission; a cache
// hit never starts) are clamped, so the phases always sum to the latency.
func phases(s sample) (admit, queue, run, deliver time.Duration) {
	p1 := later(s.View.CreatedAt, s.Start)
	p2 := later(s.View.StartedAt, p1)
	p3 := later(s.View.FinishedAt, p2)
	p4 := later(s.Delivered, p3)
	return p1.Sub(s.Start), p2.Sub(p1), p3.Sub(p2), p4.Sub(p3)
}

func later(t, floor time.Time) time.Time {
	if t.Before(floor) {
		return floor
	}
	return t
}

// addLayerMetrics completes the traced pass's table with what needs the
// checked samples, the set-up repetitions or the untraced pass.
func addLayerMetrics(out *outcome) {
	p := out.traced
	l := p.layers
	var lat, submit, deliver, admit, queue, run, deliverPhase []float64
	var errors float64
	for _, s := range p.samples {
		if s.HTTPError {
			errors++
		}
		if s.Err != "" {
			continue
		}
		lat = append(lat, s.latency().Seconds())
		submit = append(submit, s.Submitted.Sub(s.Start).Seconds())
		deliver = append(deliver, s.Delivered.Sub(s.View.FinishedAt).Seconds())
		a, q, r, d := phases(s)
		admit = append(admit, a.Seconds())
		queue = append(queue, q.Seconds())
		run = append(run, r.Seconds())
		deliverPhase = append(deliverPhase, d.Seconds())
	}
	l["http.submit_s"] = median(submit)
	l["http.deliver_s"] = median(deliver)
	l["http.errors"] = errors

	waits := map[string][]float64{}
	var runs []float64
	for _, s := range runJobs(p.samples) {
		class := string(s.Spec.Priority)
		if class == "" {
			class = "batch"
		}
		waits[class] = append(waits[class], s.View.StartedAt.Sub(s.View.CreatedAt).Seconds())
		runs = append(runs, s.View.FinishedAt.Sub(s.View.StartedAt).Seconds())
	}
	for _, class := range []string{"interactive", "batch", "background"} {
		l["service.queue_wait_s."+class] = median(waits[class])
	}
	l["service.run_s"] = median(runs)

	l["graph.open_s"] = median(seconds(out.opens))
	l["graph.open_blockcache_misses"] = median(out.openMiss)
	l["journal.replay_s"] = median(seconds(out.replays))

	p50 := median(lat)
	l["phase.admit_s"] = median(admit)
	l["phase.queue_s"] = median(queue)
	l["phase.run_s"] = median(run)
	l["phase.deliver_s"] = median(deliverPhase)
	l["phase.residual_s"] = p50 - l["phase.admit_s"] - l["phase.queue_s"] - l["phase.run_s"] - l["phase.deliver_s"]
	l["trace.job_p50_s"] = p50
	l["trace.jobs"] = float64(len(p.samples))
	l["trace.overhead_s"] = p50 - median(latencies(out.untraced))
}

// latencies of a pass's correctly completed jobs, in seconds.
func latencies(p *pass) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.Err == "" {
			out = append(out, s.latency().Seconds())
		}
	}
	return out
}
