// Command perfbench is the repository's benchmark. It runs one workload
// (or all three) against the code in the current directory, checks
// that the outputs are correct, and prints every metric by name and
// unit. The last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics; a failed correctness
// gate exits non-zero without printing it.
//
// Usage, from the repository root (perfbench/run.sh builds the daemon
// and this command first):
//
//	perfbench -corund <binary> [-workload ingest|backlog|plan|all]
//	          [-seed n] [-seconds n] [-trace 0|1] [-out dir]
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner, in the order -workload
// all runs them.
var workloads = []struct {
	name string
	run  func(runConfig) (*report, error)
}{
	{"ingest", runIngest},
	{"backlog", runBacklog},
	{"plan", runPlan},
}

// e2eMetrics and layerMetrics are the metric sets of BENCHMARK.json, in
// order, with their units. Every run prints every end-to-end metric;
// every traced run prints every per-layer metric, reading 0 for a layer
// its workload does not exercise (README.md lists which workload
// measures which).
var e2eMetrics = [][2]string{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
	{"rss_mb", "MiB"},
	{"sim_makespan_per_job_s", "sim_s"},
	{"energy_per_job_j", "J"},
}

var layerMetrics = func() [][2]string {
	out := [][2]string{
		{"loadgen.lag_p99_ms", "ms"},
		{"client.ack_p50_ms", "ms"},
		{"client.ack_p99_ms", "ms"},
		{"client.read_p50_ms", "ms"},
		{"client.read_p99_ms", "ms"},
		{"client.failed_frac", "ratio"},
		{"server.cpu_ms_per_job", "ms"},
		{"server.status_p99_ms", "ms"},
		{"server.plan_p99_ms", "ms"},
		{"server.epoch_ms_p50", "ms"},
		{"server.epoch_ms_p99", "ms"},
		{"server.jobs_per_epoch", "count"},
		{"admission.queue_depth_max", "count"},
		{"journal.fsyncs_per_job", "count"},
		{"journal.records_per_commit", "count"},
		{"journal.append_p99_ms", "ms"},
		{"journal.bytes_per_job", "B"},
	}
	for _, n := range planSizes {
		sfx := fmt.Sprintf(".n%d", n)
		for _, m := range [][2]string{
			{"profile.us_per_job", "us"},
			{"model.us_per_job", "us"},
			{"policy.us_per_job", "us"},
			{"core.predict_us_per_job", "us"},
			{"sim.us_per_job", "us"},
			{"model.cache_hit_ratio", "ratio"},
			{"model.alloc_kb_per_job", "KiB"},
			{"policy.alloc_kb_per_job", "KiB"},
			{"sim.alloc_kb_per_job", "KiB"},
			{"sim.throttles_per_job", "count"},
		} {
			out = append(out, [2]string{m[0] + sfx, m[1]})
		}
	}
	return append(out,
		[2]string{"model.pred_error_pct", "%"},
		[2]string{"sim.cap_violation_frac", "ratio"},
		[2]string{"trace.jobs_per_s", "jobs/s"},
		[2]string{"trace.overhead_pct", "%"},
		[2]string{"trace.spans", "count"},
	)
}()

func main() {
	workload := flag.String("workload", "all", "ingest | backlog | plan | all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "measured seconds per workload")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	corund := flag.String("corund", "", "corund binary (built by run.sh)")
	out := flag.String("out", ".bench_build", "directory for daemon data, logs and span files")
	flag.Parse()

	if err := run(os.Stdout, *workload, *seed, *seconds, *traceFlag, *corund, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, workload string, seed int64, seconds, traceFlag int, corund, out string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if corund == "" {
		return fmt.Errorf("-corund is required")
	}
	absCorund, err := filepath.Abs(corund)
	if err != nil {
		return err
	}
	absOut, err := filepath.Abs(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(absOut, 0o755); err != nil {
		return err
	}
	ran := false
	for _, wl := range workloads {
		if workload != "all" && workload != wl.name {
			continue
		}
		ran = true
		cfg := runConfig{
			workload: wl.name, seed: seed, duration: time.Duration(seconds) * time.Second,
			trace: traceFlag == 1, corund: absCorund, out: absOut,
		}
		rep, err := wl.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := complete(rep); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		env := environment(cfg)
		if cfg.trace {
			path := filepath.Join(absOut, fmt.Sprintf("spans-%s-seed%d.json", wl.name, seed))
			meta := map[string]any{"workload": wl.name, "seed": seed}
			for _, kv := range append(env, rep.params...) {
				meta[kv[0]] = kv[1]
			}
			if err := writeSpans(path, meta, rep.spans); err != nil {
				return err
			}
			env = append(env, [2]string{"spans", path})
		}
		if err := rep.write(w, env); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown workload %q (ingest | backlog | plan | all)", workload)
	}
	return nil
}

// complete checks that an untraced run measured every end-to-end
// metric as a positive finite number, and fills the per-layer metrics
// a traced run's workload does not exercise with 0.
func complete(rep *report) error {
	if rep.cfg.trace {
		rep.layer("trace.spans", float64(len(rep.spans)), "count")
		for _, m := range layerMetrics {
			if _, ok := rep.layerM[m[0]]; !ok {
				rep.layer(m[0], 0, m[1])
			}
		}
		return nil
	}
	for _, m := range e2eMetrics {
		v, ok := rep.e2eM[m[0]]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m[0])
		}
		if v.Unit != m[1] {
			return fmt.Errorf("metric %s has unit %s, want %s", m[0], v.Unit, m[1])
		}
	}
	for name, v := range rep.e2eM {
		if v.Value <= 0 || v.Value != v.Value || v.Value > 1e300 {
			return fmt.Errorf("metric %s = %v is not a positive finite number", name, v.Value)
		}
	}
	return nil
}

// environment discloses what the figures depend on besides the code.
func environment(cfg runConfig) [][2]string {
	root, _ := os.Getwd()
	return [][2]string{
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprintf("generator %d, daemon %d", runtime.GOMAXPROCS(0), daemonProcs())},
		{"go", runtime.Version()},
		{"commit", sourceCommit(root)},
		{"source_sha256", sourceDigest(root)},
		{"seed", fmt.Sprint(cfg.seed)},
		{"journal_fs", fsType(cfg.out)},
	}
}

// sourceDigest hashes every Go source and module file under root
// (skipping dot-directories such as the build directory), so a result
// names the code it measured even in a checkout without git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
