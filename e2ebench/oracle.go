package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service"
)

// reference is the expected result of one spec, computed directly with the
// engine: the JSON of its concentration and weights, per size.
type reference struct {
	bySize map[int]refResult
}

type refResult struct {
	concentration, weights []byte
}

// oracleWorkers is how many references are computed at once.
const oracleWorkers = 2

// refKey identifies the result bytes of a spec: every field that determines
// them, and none (priority, nodes) that does not.
func refKey(s service.Spec) string {
	w := s.Walkers
	if w == 0 {
		w = 1
	}
	return fmt.Sprintf("%s k=%d sizes=%v d=%d css=%t nb=%t steps=%d walkers=%d seed=%d",
		s.Graph, s.K, s.Sizes, s.D, s.CSS, s.NB, s.Steps, w, s.Seed)
}

// computeReference runs the spec with core.NewEstimator (or
// core.NewMultiEstimator) over access.NewGraphClient on g.
func computeReference(g *graph.Graph, s service.Spec) (*reference, error) {
	ref := &reference{bySize: map[int]refResult{}}
	client := access.NewGraphClient(g)
	if len(s.Sizes) > 0 {
		est, err := core.NewMultiEstimator(client, core.MultiConfig{
			Sizes: s.Sizes, D: s.D, CSS: s.CSS, NB: s.NB, Walkers: s.Walkers, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		res, err := est.Run(s.Steps)
		if err != nil {
			return nil, err
		}
		for k, r := range res.Results {
			if ref.bySize[k], err = encodeResult(r); err != nil {
				return nil, err
			}
		}
		return ref, nil
	}
	est, err := core.NewEstimator(client, core.Config{
		K: s.K, D: s.D, CSS: s.CSS, NB: s.NB, Walkers: s.Walkers, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	res, err := est.Run(s.Steps)
	if err != nil {
		return nil, err
	}
	ref.bySize[s.K], err = encodeResult(res)
	return ref, err
}

func encodeResult(r *core.Result) (refResult, error) {
	conc, err := json.Marshal(r.Concentration())
	if err != nil {
		return refResult{}, err
	}
	w, err := json.Marshal(r.Weights)
	return refResult{concentration: conc, weights: w}, err
}

// check computes every distinct spec's reference once, after all timing,
// on the v1 fixture file, and marks each completed job whose result is not
// byte-identical to it as failed.
func check(v1 string, out *outcome, tamper func(map[string]*reference)) error {
	passes := []*pass{out.untraced}
	if out.traced != nil {
		passes = append(passes, out.traced)
	}
	specs := map[string]service.Spec{}
	for _, p := range passes {
		for _, s := range p.samples {
			if s.Err == "" {
				specs[refKey(s.Spec)] = s.Spec
			}
		}
	}
	g, err := graph.OpenFile(v1, graph.FormatGCSR)
	if err != nil {
		return err
	}
	defer g.Close()
	// The daemon serves the largest component, as registration does.
	lcc, _ := graph.LargestComponent(g)
	refs, err := computeReferences(lcc, specs)
	if err != nil {
		return err
	}
	if tamper != nil {
		tamper(refs)
	}
	for _, p := range passes {
		for i := range p.samples {
			s := &p.samples[i]
			if s.Err == "" {
				s.Err = compare(s.View, refs[refKey(s.Spec)], s.Spec)
			}
		}
	}
	return nil
}

func computeReferences(g *graph.Graph, specs map[string]service.Spec) (map[string]*reference, error) {
	keys := make(chan string)
	var (
		mu       sync.Mutex
		refs     = map[string]*reference{}
		firstErr error
		wg       sync.WaitGroup
	)
	for i := 0; i < oracleWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				ref, err := computeReference(g, specs[k])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", k, err)
				}
				refs[k] = ref
				mu.Unlock()
			}
		}()
	}
	for k := range specs {
		keys <- k
	}
	close(keys)
	wg.Wait()
	return refs, firstErr
}

// compare returns why a completed job's result differs from its reference,
// or "" when every size matches byte for byte.
func compare(v jobView, ref *reference, spec service.Spec) string {
	if ref == nil {
		return "no reference"
	}
	got := map[int]*jobResult{}
	if len(spec.Sizes) > 0 {
		for ks, r := range v.Results {
			k, err := strconv.Atoi(ks)
			if err != nil {
				return "bad result size " + ks
			}
			got[k] = r
		}
	} else if v.Result != nil {
		got[spec.K] = v.Result
	}
	if len(got) != len(ref.bySize) {
		return fmt.Sprintf("result has %d sizes, reference %d", len(got), len(ref.bySize))
	}
	for k, want := range ref.bySize {
		r := got[k]
		if r == nil {
			return fmt.Sprintf("no result for k=%d", k)
		}
		if !bytes.Equal(r.Concentration, want.concentration) || !bytes.Equal(r.Weights, want.weights) {
			return fmt.Sprintf("k=%d result differs from reference", k)
		}
	}
	return ""
}
