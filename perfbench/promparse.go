package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed /metrics exposition: each sample line's series
// (name plus label clause, exactly as exposed) mapped to its value.
type scrape map[string]float64

// parseMetrics parses Prometheus text exposition. Comment lines and
// blank lines are skipped; a sample line that does not parse is an
// error, so a format change cannot silently zero a metric.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// get returns a series' value, failing if the daemon does not expose
// it.
func (s scrape) get(series string) (float64, error) {
	v, ok := s[series]
	if !ok {
		return 0, fmt.Errorf("metrics: series %s not exposed", series)
	}
	return v, nil
}

// delta is post − pre for one series.
func delta(pre, post scrape, series string) (float64, error) {
	a, err := pre.get(series)
	if err != nil {
		return 0, err
	}
	b, err := post.get(series)
	if err != nil {
		return 0, err
	}
	return b - a, nil
}

// histQuantile estimates the q-quantile of the observations a
// histogram gained between two scrapes, interpolating linearly inside
// the bucket that holds it (the Prometheus histogram_quantile rule; a
// quantile in the +Inf bucket reads as the highest finite bound). It
// returns the estimate and the number of observations it rests on.
func histQuantile(pre, post scrape, name string, q float64) (float64, float64, error) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for series, v := range post {
		le, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le = strings.TrimSuffix(le, `"}`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("metrics: %s: bad bound %q", name, le)
		}
		bs = append(bs, bucket{bound, v - pre[series]})
	}
	if len(bs) == 0 {
		return 0, 0, fmt.Errorf("metrics: histogram %s not exposed", name)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0, 0, fmt.Errorf("metrics: histogram %s has no new observations", name)
	}
	target := q * total
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if math.IsInf(b.le, 1) {
				return lo, total, nil
			}
			if b.n == below {
				return b.le, total, nil
			}
			return lo + (b.le-lo)*(target-below)/(b.n-below), total, nil
		}
		lo, below = b.le, b.n
	}
	return lo, total, nil
}
