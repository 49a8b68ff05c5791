package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/service"
)

// smallConfig is the reduced-size check mode: a 20,000-node graph, step
// budgets at a twentieth, one set-up and a one-second run.
func smallConfig(t *testing.T, workDir, workload string, trace bool) config {
	t.Helper()
	return config{
		workload:  workload,
		seed:      7,
		duration:  time.Second,
		trace:     trace,
		workDir:   workDir,
		nodes:     20_000,
		stepScale: 0.05,
		minSetups: 1,
	}
}

// benchmarkSpec is the part of BENCHMARK.json the check mode compares.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine decodes the JSON object a report ends with.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// TestCheckMode runs every workload briefly, traced and untraced, requires
// every job to match its reference, and checks the printed metric names
// and units against BENCHMARK.json.
func TestCheckMode(t *testing.T) {
	spec := readBenchmarkSpec(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	workDir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				out, err := runWorkload(context.Background(), smallConfig(t, workDir, w.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := report(&buf, out); err != nil {
					t.Fatal(err)
				}
				res := lastLine(t, buf.String())
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, buf.String())
				}
				got := map[string]string{}
				for name, v := range res.Metrics {
					got[name] = v.Unit
				}
				if diff := mapDiff(got, want[trace]); diff != "" {
					t.Errorf("metrics differ from BENCHMARK.json: %s", diff)
				}
				if !trace {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", name, v.Value)
						}
					}
				}
			})
		}
	}
}

func mapDiff(got, want map[string]string) string {
	var diffs []string
	for k, u := range want {
		if g, ok := got[k]; !ok {
			diffs = append(diffs, "missing "+k)
		} else if g != u {
			diffs = append(diffs, k+" unit "+g+", want "+u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, "unexpected "+k)
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// TestCorruptedReferenceCountsAsFailed shows that a job whose result differs
// from its reference is counted in failed_frac and makes the run incorrect.
func TestCorruptedReferenceCountsAsFailed(t *testing.T) {
	cfg := smallConfig(t, t.TempDir(), "engine-mix", false)
	cfg.tamper = func(refs map[string]*reference) {
		keys := make([]string, 0, len(refs))
		for k := range refs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for k, r := range refs[keys[0]].bySize {
			r.weights = append([]byte(nil), r.weights...)
			r.weights[1] ^= 1 // one digit of the first weight
			refs[keys[0]].bySize[k] = r
		}
	}
	out, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report(&buf, out); err != nil {
		t.Fatal(err)
	}
	res := lastLine(t, buf.String())
	// Every engine-mix spec is distinct, so exactly one job is wrong.
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%t failed=%d, want false and 1\n%s", res.Correct, res.Failed, buf.String())
	}
	if strings.Contains(buf.String(), "failed_frac                       0 ") {
		t.Errorf("failed_frac printed as 0:\n%s", buf.String())
	}
}

// TestTracedAccessMatchesUntraced checks that the traced decorator keeps
// access.CommonCounter when the inner client has it, and that a traced and
// an untraced daemon give byte-identical results and equal walk steps for
// every engine-mix job class, the d=3 kernel path included.
func TestTracedAccessMatchesUntraced(t *testing.T) {
	cfg := smallConfig(t, t.TempDir(), "engine-mix", false)
	fx, err := loadFixture(cfg.workDir, cfg.nodes, cfg.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("engine-mix")
	var specs []service.Spec
	for i, c := range engineClasses {
		specs = append(specs, c.spec(int64(100+i), cfg.stepScale))
	}
	type run struct {
		results []string
		steps   float64
	}
	runAll := func(traced bool) run {
		in, err := startInstance(w, cfg, fx, t.TempDir(), 0, traced)
		if err != nil {
			t.Fatal(err)
		}
		defer in.fleet.close()
		if traced {
			c := in.stacks[0].newClient(nil)
			if _, ok := c.(access.CommonCounter); !ok {
				t.Fatal("traced in-memory client lost access.CommonCounter")
			}
		}
		hc := newHTTPClient()
		defer hc.CloseIdleConnections()
		var r run
		for _, spec := range specs {
			s := runOne(context.Background(), hc, in.fleet.coord.url, spec)
			if s.Err != "" {
				t.Fatalf("%+v: %s", spec, s.Err)
			}
			body, err := json.Marshal([]any{s.View.Result, s.View.Results})
			if err != nil {
				t.Fatal(err)
			}
			r.results = append(r.results, string(body))
		}
		snap, err := scrape(hc, in.fleet.coord.url)
		if err != nil {
			t.Fatal(err)
		}
		r.steps = snap["graphletd_walk_steps_total"]
		if traced {
			if calls, _ := in.stacks[0].tally.totals(); calls == 0 {
				t.Error("traced run recorded no access calls")
			}
		}
		return r
	}
	plain, traced := runAll(false), runAll(true)
	for i := range specs {
		if plain.results[i] != traced.results[i] {
			t.Errorf("%+v: traced result differs\nplain:  %s\ntraced: %s", specs[i], plain.results[i], traced.results[i])
		}
	}
	if plain.steps == 0 || plain.steps != traced.steps {
		t.Errorf("core.steps: untraced %g, traced %g", plain.steps, traced.steps)
	}
}
