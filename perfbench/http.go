package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"corun/internal/loadgen"
	"corun/internal/workload"
)

// The tenant mix the HTTP workloads submit and the WFQ weights the
// daemon drains it with.
const (
	tenantMix     = "team-a=3:high,team-b=2,batch=1:low"
	tenantWeights = "team-a=3,team-b=1,batch=0"
)

// Checks made after the daemon drains.
const (
	sampledJobs  = 64                     // acked IDs read back with GET /v1/jobs/{id}
	drainTimeout = 120 * time.Second      // for every accepted job to finish
	tracePoll    = 250 * time.Millisecond // /metrics scrape period of a traced run
)

// specGen draws seeded job specs: a program uniform over the benchmark
// set, an input scale in [0.8, 1.2], and a tenant by the mix's shares.
type specGen struct {
	rng     *rand.Rand
	names   []string
	tenants []loadgen.TenantEntry
}

func newSpecGen(rng *rand.Rand) (*specGen, error) {
	tenants, err := loadgen.ParseTenants(tenantMix)
	if err != nil {
		return nil, err
	}
	return &specGen{rng: rng, names: workload.Names(), tenants: tenants}, nil
}

// next returns one encoded POST /v1/jobs body.
func (g *specGen) next() []byte {
	spec := workload.JobSpec{
		Program: g.names[g.rng.Intn(len(g.names))],
		Scale:   0.8 + 0.4*g.rng.Float64(),
		Label:   "perfbench",
	}
	total := 0.0
	for _, t := range g.tenants {
		total += t.Weight
	}
	pick := g.rng.Float64() * total
	for _, t := range g.tenants {
		spec.Tenant, spec.Priority = t.Name, t.Priority
		if pick < t.Weight {
			break
		}
		pick -= t.Weight
	}
	b, _ := json.Marshal(spec) // a JobSpec always encodes
	return b
}

// submit posts one job and returns its ID; ok is false for anything
// but 202 (a refusal, an error status or a transport failure).
func submit(ctx context.Context, client *http.Client, base string, body []byte) (id string, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return "", false
	}
	var j struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(rb, &j) != nil || j.ID == "" {
		return "", false
	}
	return j.ID, true
}

// get reads path and reports whether it answered 200.
func get(ctx context.Context, client *http.Client, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// mark is the daemon's state at one instant: its metrics and CPU time.
type mark struct {
	at  time.Time
	m   scrape
	cpu time.Duration
}

func (d *daemon) mark(ctx context.Context, client *http.Client, tr *tracer) (mark, error) {
	t0 := time.Now()
	m, err := d.scrape(ctx, client)
	tr.record("GET /metrics", "scrape", 0, t0, time.Now())
	if err != nil {
		return mark{}, err
	}
	cpu, err := procCPU(d.pid())
	return mark{at: t0, m: m, cpu: cpu}, err
}

// serverLayers adds the daemon-side per-layer metrics of the window
// between two marks. scrapes are the marks taken inside the window.
func serverLayers(rep *report, pre, post mark, scrapes []mark) error {
	var missing error
	d := func(series string) float64 {
		v, err := delta(pre.m, post.m, series)
		if err != nil && missing == nil {
			missing = err
		}
		return v
	}
	done, submitted := d("corund_jobs_done_total"), d("corund_jobs_submitted_total")
	rep.layer("server.cpu_ms_per_job", ratio(float64(post.cpu-pre.cpu)/1e6, done), "ms")
	for _, q := range []float64{0.5, 0.99} {
		v, n, err := histQuantile(pre.m, post.m, "corund_epoch_latency_seconds", q)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("server.epoch_ms_p%02.0f", q*100)
		rep.layer(name, v*1e3, "ms")
		rep.samples[name] = fmt.Sprintf("n=%.0f epochs, interpolated in buckets", n)
	}
	rep.layer("server.jobs_per_epoch", ratio(done, d("corund_epochs_total")), "count")
	depth, p99s := 0.0, []float64{}
	for _, s := range append(scrapes, pre, post) {
		depth = max(depth, s.m["corund_queue_depth"])
		if v, ok := s.m[`corund_journal_append_latency_seconds{quantile="0.99"}`]; ok && v == v {
			p99s = append(p99s, v*1e3)
		}
	}
	rep.layer("admission.queue_depth_max", depth, "count")
	rep.layer("journal.fsyncs_per_job", ratio(d("corund_journal_fsyncs_total"), submitted), "count")
	rep.layer("journal.records_per_commit", ratio(d("corund_journal_appends_total"), d("corund_journal_batches_total")), "count")
	if len(p99s) > 0 {
		rep.layer("journal.append_p99_ms", median(p99s), "ms")
	}
	rep.layer("journal.bytes_per_job", ratio(d("corund_journal_bytes_total"), submitted), "B")
	return missing
}

// finishHTTP waits until every accepted job is done and runs the
// gates: the daemon's done counter moved by exactly the accepted count
// and its failed counter not at all, a seeded sample of acked IDs reads
// done on a device, and after a drain the journal recovers every acked
// job as done. It also records rss_mb and the simulated per-job
// figures. base is the mark taken before the first submission.
func finishHTTP(cfg runConfig, rep *report, d *daemon, client *http.Client, base mark, acked []string) error {
	ctx := context.Background()
	var last mark
	deadline := time.Now().Add(drainTimeout)
	for {
		m, err := d.mark(ctx, client, nil)
		if err != nil {
			return err
		}
		last = m
		done, _ := delta(base.m, m.m, "corund_jobs_done_total")
		if int(done) >= len(acked) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate: %d of %d accepted jobs done after %v", int(done), len(acked), drainTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for series, want := range map[string]int{
		"corund_jobs_done_total":      len(acked),
		"corund_jobs_submitted_total": len(acked),
		"corund_jobs_failed_total":    0,
	} {
		got, err := delta(base.m, last.m, series)
		if err != nil {
			return err
		}
		if int(got) != want {
			return fmt.Errorf("gate: %s moved by %v, want %d", series, got, want)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < sampledJobs && len(acked) > 0; i++ {
		id := acked[rng.Intn(len(acked))]
		j, err := d.job(client, id)
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		if j.ID != id || j.State != "done" || j.Device == "" {
			return fmt.Errorf("gate: job %s reads state %q device %q, want done on a device", id, j.State, j.Device)
		}
	}
	rss, err := procPeakRSS(d.pid())
	if err != nil {
		return err
	}
	rep.e2e("rss_mb", rss, "MiB")
	done := float64(len(acked))
	clock, err := delta(base.m, last.m, "corund_sim_clock_seconds")
	if err != nil {
		return err
	}
	energy, err := delta(base.m, last.m, "corund_energy_joules_total")
	if err != nil {
		return err
	}
	rep.e2e("sim_makespan_per_job_s", clock/done, "sim_s")
	rep.e2e("energy_per_job_j", energy/done, "J")

	if err := d.stop(); err != nil {
		return err
	}
	states, err := d.recovered()
	if err != nil {
		return err
	}
	for _, id := range acked {
		if st, ok := states[id]; !ok || st != "done" {
			return fmt.Errorf("gate: acked job %s recovered from the journal as %q (present %v)", id, st, ok)
		}
	}
	// Every gate passed: the journal and log are no longer needed. A
	// failed run keeps them for diagnosis.
	return os.RemoveAll(filepath.Dir(d.dataDir))
}

// opKind is one ingest operation type.
type opKind uint8

const (
	opSubmit opKind = iota
	opStatus
	opPlan
)

var opNames = [...]string{"POST /v1/jobs", "GET /v1/jobs/{id}", "GET /v1/plan"}

// The ingest workload: an open loop at ingestRate operations per second
// over nproc connections.
const (
	ingestRate   = 1000.0
	ingestWarmup = 2 * time.Second
	ingestPrime  = 16 // jobs submitted before the schedule starts
	recentIDs    = 1024
)

// ingestShares are the operation mix: submit, status read, plan read.
var ingestShares = [...]float64{0.50, 0.25, 0.25}

// arrival is one scheduled operation of the open loop.
type arrival struct {
	due  time.Duration // since the schedule's start
	kind opKind
	body []byte  // submit: the job spec
	pick float64 // status: which recently acked job to read, in [0, 1)
}

// arrivalSchedule precomputes the open loop: Poisson arrivals at rate
// per second over span, each an operation drawn by ingestShares.
func arrivalSchedule(seed int64, rate float64, span time.Duration) ([]arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	specs, err := newSpecGen(rng)
	if err != nil {
		return nil, err
	}
	var out []arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out, nil
		}
		a := arrival{due: due, kind: opPlan}
		u := rng.Float64()
		for k, share := range ingestShares {
			if u < share {
				a.kind = opKind(k)
				break
			}
			u -= share
		}
		switch a.kind {
		case opSubmit:
			a.body = specs.next()
		case opStatus:
			a.pick = rng.Float64()
		}
		out = append(out, a)
	}
}

// sleepUntil waits until t with nanosleep(2), which wakes about 60 µs
// late. time.Sleep rounds short waits up to the runtime timer's
// millisecond tick, which would make most open-loop sends up to 1 ms
// late and bill that to the daemon.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop sleeps what is left
	}
}

// opRecord is the outcome of one scheduled operation.
type opRecord struct {
	ok       bool
	id       string  // submit: the acked job
	latMs    float64 // from the due time to the answer
	serverMs float64 // from the send to the answer
	lagMs    float64 // how late the send ran against the schedule
}

// recent is a bounded ring of acked job IDs for status reads.
type recent struct {
	mu   sync.Mutex
	ids  []string
	next int
}

func (r *recent) add(id string) {
	r.mu.Lock()
	if len(r.ids) < recentIDs {
		r.ids = append(r.ids, id)
	} else {
		r.ids[r.next] = id
		r.next = (r.next + 1) % recentIDs
	}
	r.mu.Unlock()
}

func (r *recent) pick(u float64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ids[int(u*float64(len(r.ids)))]
}

// ingestFlags and backlogFlags are the daemon's flags for each HTTP
// workload. Both run with -fsync interval. The journal lives in the
// checkout, on whatever disk that is, and with -fsync always each ack
// waited on that disk's fsync: over the same four seeds, ingest's POST
// p50 spread 0.50-1.13 ms against 0.31-0.37 ms with interval. Every
// record is still journaled and fsynced within 100 ms, and the drain
// gate still checks that each acked job reached the journal.
func ingestFlags(seed int64) []string {
	return []string{"-policy", "random", "-max-batch", "64", "-max-queue", "4096", "-fsync", "interval",
		"-tenant-weights", tenantWeights, "-seed", fmt.Sprint(seed)}
}

// runIngest is the ingest workload.
func runIngest(cfg runConfig) (*report, error) {
	conns := runtime.NumCPU()
	flags := ingestFlags(cfg.seed)
	rep := newReport(cfg)
	rep.param("loop", fmt.Sprintf("open, Poisson arrivals at %g ops/s, %d connections", ingestRate, conns))
	rep.param("mix", fmt.Sprintf("%g%% %s, %g%% %s, %g%% %s", 100*ingestShares[0], opNames[0], 100*ingestShares[1], opNames[1], 100*ingestShares[2], opNames[2]))
	rep.param("tenants", tenantMix)
	rep.param("warmup", ingestWarmup)
	rep.param("daemon_flags", strings.Join(flags, " "))

	sched, err := arrivalSchedule(cfg.seed, ingestRate, ingestWarmup+cfg.duration)
	if err != nil {
		return nil, err
	}
	client := newClient(conns)
	defer client.CloseIdleConnections()
	d, setup, err := startDaemons(cfg, client, "pre", flags)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	ctx := context.Background()
	base, err := d.mark(ctx, client, nil)
	if err != nil {
		return nil, err
	}

	// Prime: a few jobs to read back and a first plan to fetch, so no
	// scheduled read can miss.
	var ring recent
	var acked []string
	primer, err := newSpecGen(rand.New(rand.NewSource(cfg.seed ^ 0x5eed)))
	if err != nil {
		return nil, err
	}
	for i := 0; i < ingestPrime; i++ {
		id, ok := submit(ctx, client, d.base, primer.next())
		if !ok {
			return nil, fmt.Errorf("priming submit %d refused", i)
		}
		ring.add(id)
		acked = append(acked, id)
	}
	for !get(ctx, client, d.base+"/v1/plan") {
		time.Sleep(5 * time.Millisecond)
	}

	recs := make([]opRecord, len(sched))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.due)
				sleepUntil(due)
				sent := time.Now()
				rec := opRecord{lagMs: float64(sent.Sub(due)) / 1e6}
				switch a.kind {
				case opSubmit:
					rec.id, rec.ok = submit(ctx, client, d.base, a.body)
					if rec.ok {
						ring.add(rec.id)
					}
				case opStatus:
					rec.ok = get(ctx, client, d.base+"/v1/jobs/"+ring.pick(a.pick))
				case opPlan:
					rec.ok = get(ctx, client, d.base+"/v1/plan")
				}
				end := time.Now()
				rec.latMs, rec.serverMs = float64(end.Sub(due))/1e6, float64(end.Sub(sent))/1e6
				recs[i] = rec
				ref := fmt.Sprintf("op-%d", i)
				parent := tr.record("arrival", ref, 0, due, end)
				tr.record(opNames[a.kind], ref, parent, sent, end)
			}
		}()
	}

	// The measured window is [warmup, warmup+duration) of the schedule.
	var pre, post mark
	var scrapes []mark
	var markErr error
	func() {
		time.Sleep(time.Until(start.Add(ingestWarmup)))
		if pre, markErr = d.mark(ctx, client, tr); markErr != nil {
			return
		}
		end := start.Add(ingestWarmup + cfg.duration)
		for tr != nil && time.Until(end) > tracePoll {
			time.Sleep(tracePoll)
			m, err := d.mark(ctx, client, tr)
			if err != nil {
				markErr = err
				return
			}
			scrapes = append(scrapes, m)
		}
		time.Sleep(time.Until(end))
		post, markErr = d.mark(ctx, client, tr)
	}()
	wg.Wait()
	if markErr != nil {
		return nil, markErr
	}

	var acks, reads, lags latencies
	status, plan := &latencies{}, &latencies{}
	for i, a := range sched {
		r := recs[i]
		if r.ok && a.kind == opSubmit {
			acked = append(acked, r.id)
		}
		if a.due < ingestWarmup {
			continue
		}
		rep.attempted++
		lags.add(r.lagMs)
		dist := &reads
		server := status
		switch a.kind {
		case opSubmit:
			dist, server = &acks, nil
		case opPlan:
			server = plan
		}
		if !r.ok {
			rep.failed++
			dist.fail()
			if server != nil {
				server.fail()
			}
			continue
		}
		dist.add(r.latMs)
		if server != nil {
			server.add(r.serverMs)
		}
	}
	if err := rep.percentiles("lat", &acks, false, 0.5); err != nil {
		return nil, err
	}
	done, err := delta(pre.m, post.m, "corund_jobs_done_total")
	if err != nil {
		return nil, err
	}
	rep.e2e("jobs_per_s", done/post.at.Sub(pre.at).Seconds(), "jobs/s")
	if err := finishHTTP(cfg, rep, d, client, base, acked); err != nil {
		return nil, err
	}
	if err := reportSetup(cfg, rep, client, flags, setup); err != nil {
		return nil, err
	}

	if cfg.trace {
		if err := serverLayers(rep, pre, post, scrapes); err != nil {
			return nil, err
		}
		lag, err := lags.p(0.99)
		if err != nil {
			return nil, err
		}
		rep.layer("loadgen.lag_p99_ms", lag, "ms")
		rep.samples["loadgen.lag_p99_ms"] = fmt.Sprintf("n=%d", lags.count())
		for _, x := range []struct {
			prefix string
			l      *latencies
		}{{"client.ack", &acks}, {"client.read", &reads}} {
			if err := rep.percentiles(x.prefix, x.l, true, 0.5, 0.99); err != nil {
				return nil, err
			}
		}
		rep.layer("client.failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
		for name, l := range map[string]*latencies{"server.status_p99_ms": status, "server.plan_p99_ms": plan} {
			v, err := l.p(0.99)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rep.layer(name, v, "ms")
			rep.samples[name] = fmt.Sprintf("n=%d", l.count())
		}
		rep.spans = tr.snapshot()
	}
	return rep, nil
}

// The backlog workload: rounds of backlogRound jobs submitted back to
// back by backlogClients closed-loop clients, each round timed from its
// first submit until the daemon reports every accepted job done.
const (
	backlogRound   = 2000
	backlogClients = 2
	backlogPoll    = 10 * time.Millisecond
)

func backlogFlags(seed int64) []string {
	return []string{"-policy", "hcs+", "-cap", "15", "-tmax", "45", "-max-batch", "64", "-max-queue", "8192",
		"-fsync", "interval", "-tenant-weights", tenantWeights, "-seed", fmt.Sprint(seed)}
}

// runBacklog is the backlog workload.
func runBacklog(cfg runConfig) (*report, error) {
	conns := min(backlogClients, runtime.NumCPU())
	flags := backlogFlags(cfg.seed)
	rep := newReport(cfg)
	rep.param("loop", fmt.Sprintf("closed, %d clients", conns))
	rep.param("round_jobs", backlogRound)
	rep.param("tenants", tenantMix)
	rep.param("daemon_flags", strings.Join(flags, " "))

	client := newClient(conns)
	defer client.CloseIdleConnections()
	d, setup, err := startDaemons(cfg, client, "pre", flags)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	ctx := context.Background()
	base, err := d.mark(ctx, client, tr)
	if err != nil {
		return nil, err
	}
	specs, err := newSpecGen(rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}

	var (
		acks    latencies
		acked   []string
		rates   []float64
		scrapes []mark
		last    = base
	)
	deadline := time.Now().Add(cfg.duration)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		bodies := make([][]byte, backlogRound)
		for i := range bodies {
			bodies[i] = specs.next()
		}
		recs := make([]opRecord, backlogRound)
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(bodies) {
						return
					}
					t0 := time.Now()
					id, ok := submit(ctx, client, d.base, bodies[i])
					t1 := time.Now()
					recs[i] = opRecord{ok: ok, id: id, latMs: float64(t1.Sub(t0)) / 1e6}
					tr.record(opNames[opSubmit], id, 0, t0, t1)
				}
			}()
		}
		wg.Wait()
		accepted := 0
		for _, r := range recs {
			rep.attempted++
			if !r.ok {
				rep.failed++
				acks.fail()
				continue
			}
			accepted++
			acked = append(acked, r.id)
			acks.add(r.latMs)
		}
		for {
			m, err := d.mark(ctx, client, tr)
			if err != nil {
				return nil, err
			}
			scrapes = append(scrapes, m)
			last = m
			done, err := delta(base.m, m.m, "corund_jobs_done_total")
			if err != nil {
				return nil, err
			}
			if int(done) >= len(acked) {
				rates = append(rates, float64(accepted)/m.at.Sub(start).Seconds())
				break
			}
			if time.Since(start) > drainTimeout {
				return nil, fmt.Errorf("gate: round %d: %d of %d accepted jobs done after %v", round, int(done), len(acked), drainTimeout)
			}
			time.Sleep(backlogPoll)
		}
	}
	rep.param("round_jobs_per_s", fmt.Sprintf("%.1f", rates))
	if err := rep.percentiles("lat", &acks, false, 0.5); err != nil {
		return nil, err
	}
	rep.e2e("jobs_per_s", median(rates), "jobs/s")
	if v, err := last.m.get(`corund_binding_constraint{constraint="thermal"}`); err != nil || v != 1 {
		return nil, fmt.Errorf("gate: binding constraint is not thermal (corund_binding_constraint{constraint=\"thermal\"} = %v, %v)", v, err)
	}
	if err := finishHTTP(cfg, rep, d, client, base, acked); err != nil {
		return nil, err
	}
	if err := reportSetup(cfg, rep, client, flags, setup); err != nil {
		return nil, err
	}

	if cfg.trace {
		if err := serverLayers(rep, base, last, scrapes); err != nil {
			return nil, err
		}
		if err := rep.percentiles("client.ack", &acks, true, 0.5, 0.99); err != nil {
			return nil, err
		}
		rep.layer("client.failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
		rep.spans = tr.snapshot()
	}
	return rep, nil
}
