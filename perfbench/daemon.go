package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"corun/internal/journal"
)

// daemonStarts is how many times a run starts the daemon to time its
// set-up; setup_s is the median. Half the starts come before the load
// (the last of them serves it) and half after the drain, so that one
// slow stretch of a shared host does not set the figure.
const daemonStarts = 16

// daemonProcs is the GOMAXPROCS the daemon runs with.
func daemonProcs() int { return runtime.NumCPU() }

// daemon is one corund process serving on a loopback port, journaling
// into its own directory under the run's output directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	exited  chan struct{}
	waitErr error
}

// newClient returns the generator's HTTP client: at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs corund with flags and returns once /readyz answers
// 200, with the time from exec to that answer.
func startDaemon(cfg runConfig, client *http.Client, tag string, flags []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	dir := filepath.Join(cfg.out, "run", fmt.Sprintf("%s-%d-%s", cfg.workload, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "corund.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), dataDir: filepath.Join(dir, "journal"), exited: make(chan struct{})}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", d.dataDir}, flags...)
	d.cmd = exec.Command(cfg.corund, args...)
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", daemonProcs()))
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// A daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting corund: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := t0.Add(60 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("corund exited before ready (%v); log in %s", d.waitErr, logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("corund not ready after 60s; log in %s", logf.Name())
		}
	}
}

// startDaemons starts the daemon daemonStarts/2 times with the same
// flags, stopping all but the last, and returns the last with every
// exec-to-ready time in seconds. phase tells the data dirs of the starts
// before and after a run apart.
func startDaemons(cfg runConfig, client *http.Client, phase string, flags []string) (*daemon, []float64, error) {
	setups := make([]float64, 0, daemonStarts/2)
	for i := 0; ; i++ {
		d, setup, err := startDaemon(cfg, client, fmt.Sprintf("%s%d", phase, i), flags)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup.Seconds())
		if i == daemonStarts/2-1 {
			return d, setups, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(filepath.Dir(d.dataDir)); err != nil {
			return nil, nil, err
		}
	}
}

// reportSetup times the other half of the daemon starts after the run
// and reports setup_s as the median of all of them; before holds the
// times of the starts before the run.
func reportSetup(cfg runConfig, rep *report, client *http.Client, flags []string, before []float64) error {
	d, after, err := startDaemons(cfg, client, "post", flags)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	rep.e2e("setup_s", median(append(before, after...)), "s")
	return os.RemoveAll(filepath.Dir(d.dataDir))
}

// stop drains the daemon with SIGTERM and waits for it to exit; a
// daemon that has not exited after a minute is killed.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("corund exited early: %v", d.waitErr)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("corund drain: %w", d.waitErr)
		}
		return nil
	case <-time.After(time.Minute):
		d.kill()
		return fmt.Errorf("corund did not drain within a minute")
	}
}

// kill ends the daemon at once and waits for it; safe to call after
// it has exited.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // it may exit on its own in between
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// scrape fetches and parses /metrics.
func (d *daemon) scrape(ctx context.Context, client *http.Client) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// jobView is the part of GET /v1/jobs/{id} the gates read.
type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Device string `json:"device"`
}

func (d *daemon) job(client *http.Client, id string) (jobView, error) {
	var j jobView
	resp, err := client.Get(d.base + "/v1/jobs/" + id)
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	return j, json.NewDecoder(resp.Body).Decode(&j)
}

// recovered opens the stopped daemon's journal and returns the state of
// every job it recovers, by ID.
func (d *daemon) recovered() (map[string]string, error) {
	jl, st, _, err := journal.Open(journal.Options{Dir: d.dataDir, Fsync: journal.FsyncNever, SnapshotBytes: -1})
	if err != nil {
		return nil, fmt.Errorf("journal.Open: %w", err)
	}
	if err := jl.Close(); err != nil {
		return nil, fmt.Errorf("journal close: %w", err)
	}
	out := make(map[string]string, len(st.Jobs))
	for _, j := range st.Jobs {
		out[j.ID] = j.State
	}
	return out, nil
}
