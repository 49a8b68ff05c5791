package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// clients is the number of closed-loop clients, one per CPU of the
// benchmark host. Each waits for its job's terminal event before it
// submits the next, the way analysts and pipelines wait for their answer.
const clients = 2

// jobTimeout bounds one job from submission to its terminal event; a job
// that takes longer counts as failed.
const jobTimeout = 60 * time.Second

// jobView is the part of service.JobView the benchmark reads. Results keep
// their raw JSON so they can be compared byte for byte.
type jobView struct {
	ID         string                `json:"id"`
	State      string                `json:"state"`
	Result     *jobResult            `json:"result"`
	Results    map[string]*jobResult `json:"results"`
	CreatedAt  time.Time             `json:"created_at"`
	StartedAt  time.Time             `json:"started_at"`
	FinishedAt time.Time             `json:"finished_at"`
}

type jobResult struct {
	Concentration json.RawMessage `json:"concentration"`
	Weights       json.RawMessage `json:"weights"`
}

// sample is one submitted job as a client saw it. Start, Submitted and
// Delivered are client clock readings: before the POST, when its response
// was read, and when the terminal event arrived.
type sample struct {
	Spec      service.Spec
	Start     time.Time
	Submitted time.Time
	Delivered time.Time
	View      jobView
	HTTPError bool   // transport failure or non-2xx status
	Err       string // why the job failed, "" when it completed
}

func (s *sample) latency() time.Duration { return s.Delivered.Sub(s.Start) }

// newHTTPClient returns the load's client: at most one connection per
// closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
	}}
}

// specSource hands out the workload's job stream; calls are serialized, so
// the sequence depends only on the seed.
type specSource struct {
	mu   sync.Mutex
	next func() service.Spec
}

func (s *specSource) take() service.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// drive runs the closed loop until the deadline: every client submits,
// waits for the terminal event, and repeats. Jobs submitted before the
// deadline run to completion.
func drive(ctx context.Context, hc *http.Client, url string, src *specSource, deadline time.Time) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				s := runOne(ctx, hc, url, src.take())
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// runOne submits one job and follows its event stream to the terminal
// event.
func runOne(ctx context.Context, hc *http.Client, url string, spec service.Spec) sample {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	s := sample{Spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		s.Err = err.Error()
		return s
	}
	var view jobView
	if err := doJSON(hc, req, &view); err != nil {
		s.HTTPError, s.Err = true, "submit: "+err.Error()
		return s
	}
	s.Submitted = time.Now()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+view.ID+"/events", nil)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	resp, err := hc.Do(req)
	if err != nil {
		s.HTTPError, s.Err = true, "events: "+err.Error()
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		s.HTTPError, s.Err = true, "events: "+resp.Status
		return s
	}
	final, err := terminalEvent(resp.Body)
	s.Delivered = time.Now()
	if err != nil {
		s.Err = "events: " + err.Error()
		return s
	}
	s.View = final
	if final.State != string(service.StateDone) {
		s.Err = "job ended " + final.State
	}
	return s
}

// doJSON sends req and decodes a 2xx JSON response into out.
func doJSON(hc *http.Client, req *http.Request, out any) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// terminalEvent reads server-sent events until one whose type is a terminal
// job state, and returns its job view.
func terminalEvent(r io.Reader) (jobView, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	typ := ""
	for sc.Scan() {
		line := sc.Text()
		if t, ok := strings.CutPrefix(line, "event: "); ok {
			typ = t
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch service.State(typ) {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			var v jobView
			err := json.Unmarshal([]byte(data), &v)
			return v, err
		}
	}
	if err := sc.Err(); err != nil {
		return jobView{}, err
	}
	return jobView{}, fmt.Errorf("stream ended without a terminal event")
}
