package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	corund   string // daemon binary
	out      string // directory for daemon data, logs and span files
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run's figures. e2e holds the end-to-end
// metrics (printed with tracing off), layer the per-layer ones (with
// tracing on); both keep insertion order for the human-readable table.
type report struct {
	cfg               runConfig
	params            [][2]string
	attempted, failed int
	e2eM, layerM      map[string]metric
	e2eOrder          []string
	layerOrder        []string
	samples           map[string]string // sample count behind each percentile
	spans             []span
}

func newReport(cfg runConfig) *report {
	return &report{cfg: cfg, e2eM: map[string]metric{}, layerM: map[string]metric{}, samples: map[string]string{}}
}

// param discloses one workload parameter.
func (r *report) param(key string, v any) {
	r.params = append(r.params, [2]string{key, fmt.Sprint(v)})
}

func (r *report) e2e(name string, v float64, unit string) {
	if _, ok := r.e2eM[name]; !ok {
		r.e2eOrder = append(r.e2eOrder, name)
	}
	r.e2eM[name] = metric{v, unit}
}

func (r *report) layer(name string, v float64, unit string) {
	if _, ok := r.layerM[name]; !ok {
		r.layerOrder = append(r.layerOrder, name)
	}
	r.layerM[name] = metric{v, unit}
}

// percentiles adds <prefix>_p<q>_ms for each quantile q, as
// end-to-end or per-layer metrics, with their sample count.
func (r *report) percentiles(prefix string, l *latencies, asLayer bool, qs ...float64) error {
	for _, q := range qs {
		v, err := l.p(q)
		if err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		if math.IsInf(v, 1) {
			return fmt.Errorf("%s: p%g is a failed operation", prefix, q*100)
		}
		name := fmt.Sprintf("%s_p%02.0f_ms", prefix, q*100)
		if asLayer {
			r.layer(name, v, "ms")
		} else {
			r.e2e(name, v, "ms")
		}
		r.samples[name] = fmt.Sprintf("n=%d", l.count())
	}
	return nil
}

// result returns the machine-readable line: the end-to-end metrics, or
// the per-layer ones for a traced run.
func (r *report) result() result {
	m := r.e2eM
	if r.cfg.trace {
		m = r.layerM
	}
	return result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// write prints the human-readable block (environment, parameters, one
// metric per line with its unit and sample count) and then the result
// line.
func (r *report) write(w io.Writer, env [][2]string) error {
	fmt.Fprintf(w, "# workload %s (seed %d, %v, trace %v)\n", r.cfg.workload, r.cfg.seed, r.cfg.duration, r.cfg.trace)
	for _, kv := range env {
		fmt.Fprintf(w, "#   %-24s %s\n", kv[0], kv[1])
	}
	for _, kv := range r.params {
		fmt.Fprintf(w, "#   %-24s %s\n", kv[0], kv[1])
	}
	fmt.Fprintf(w, "#   %-24s %d attempted, %d failed (%.4g)\n", "operations", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	section := func(title string, order []string, m map[string]metric) {
		if len(order) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s\n", title)
		for _, name := range order {
			v := m[name]
			line := fmt.Sprintf("#   %-32s %14.6g %-8s", name, v.Value, v.Unit)
			if n, ok := r.samples[name]; ok {
				line += " (" + n + ")"
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	section("end-to-end", r.e2eOrder, r.e2eM)
	section("per-layer", r.layerOrder, r.layerM)
	b, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
