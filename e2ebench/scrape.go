package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a daemon's GET /metrics: every sample line,
// keyed by its series ("name" or "name{labels}").
type promSnapshot map[string]float64

func scrape(hc *http.Client, url string) (promSnapshot, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: %s", resp.Status)
	}
	snap := promSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return snap, nil
}

// delta returns after minus before for one series (0 when absent).
func delta(before, after promSnapshot, series string) float64 {
	return after[series] - before[series]
}

// histMean is the mean observation of a histogram over the interval.
func histMean(before, after promSnapshot, name string) float64 {
	n := delta(before, after, name+"_count")
	if n == 0 {
		return 0
	}
	return delta(before, after, name+"_sum") / n
}
