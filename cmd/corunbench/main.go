// Command corunbench is the load-test harness for the corund daemon.
// It drives a corund instance end-to-end over HTTP — open-loop (fixed
// arrival rate) or closed-loop (fixed concurrency) — with a
// configurable job mix drawn from the calibrated benchmark programs,
// a discarded warmup window, and per-endpoint latency histograms, and
// emits a machine-readable JSON report (the repo's BENCH_7.json bench
// trajectory).
//
// Usage:
//
//	corunbench [-url http://host:8080] [-mode open|closed]
//	           [-rate rps] [-concurrency n]
//	           [-duration dur] [-warmup dur] [-ready-timeout dur]
//	           [-mix all|prog[=w],...] [-tenants name[=share][:prio],...]
//	           [-read-fraction f] [-seed n]
//	           [-fleet n] [-fleet-cap watts] [-balancer name] [-baseline]
//	           [-out file]
//	           [-policy name] [-cap watts] [-cap-pp0 watts] [-cap-pp1 watts]
//	           [-tmax celsius] [-max-queue n]
//	           [-tenant-queue n] [-tenant-weights name=w,...] [-max-batch n]
//	           [-epoch-gap dur] [-fsync pol] [-data-dir dir] [-in-memory]
//
// With -url it targets a running daemon. Without it, corunbench
// launches an in-process corund on a loopback port — journaling to a
// temporary data dir (so journal fsync counts are part of the report)
// unless -in-memory is set — drives it, and drains it cleanly; the
// flags after -policy configure that instance. Before offering load
// the harness polls the target's /readyz until it answers 200 (up to
// -ready-timeout) instead of sleeping a fixed interval.
//
// -fleet N self-hosts a whole fleet instead: N corund nodes (IDs n0,
// n1, ..., one shared characterization, per-node temp journals) behind
// an in-process fleet coordinator (internal/fleet), and drives the
// coordinator's URL. -fleet-cap is the fleet-wide power budget
// (default N × -cap) and -balancer the placement policy. The report
// moves to the fleet bench trajectory (BENCH_8.json): it gains a
// "fleet" section with each node's routed counts, CPU/GPU placement
// mix, and power share, read from the coordinator's GET /v1/nodes.
// -baseline additionally runs the same workload against a fresh
// single node at the per-node share of the offered load (concurrency
// or rate divided by N) and embeds that run, so the report carries
// its own like-for-like speedup evidence.
//
// -tenants offers a multi-tenant submission mix: each term is a
// tenant name, its share of submissions, and the priority class its
// jobs carry (e.g. "team-a=3:high,team-b=1,batch=1:low"); the report
// then adds per-tenant accept/reject counts and ack-latency
// quantiles. -tenant-weights, -tenant-queue, and -max-batch configure
// the self-hosted instance's admission layer (WFQ weights, per-tenant
// queue bound, and the bounded batch that enables priority
// preemption).
//
// `make loadtest` wires the standard invocation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"corun/internal/admission"
	"corun/internal/apu"
	"corun/internal/cluster"
	"corun/internal/fleet"
	"corun/internal/journal"
	"corun/internal/loadgen"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/server"
	"corun/internal/units"
)

func main() {
	log.SetPrefix("corunbench: ")
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("corunbench", flag.ContinueOnError)
	url := fs.String("url", "", "target corund base URL (empty = launch an in-process instance)")
	mode := fs.String("mode", "closed", "load mode: open (fixed arrival rate) | closed (fixed concurrency)")
	rate := fs.Float64("rate", 100, "open-loop arrival rate in requests/second")
	conc := fs.Int("concurrency", 4, "closed-loop client count")
	duration := fs.Duration("duration", 10*time.Second, "measurement window")
	warmup := fs.Duration("warmup", 2*time.Second, "discarded warmup window")
	mixFlag := fs.String("mix", "all", "job mix: all, or prog[=weight],... from the calibrated benchmarks")
	tenantsFlag := fs.String("tenants", "", "tenant mix: name[=share][:priority],... (empty = no tenant fields)")
	readFrac := fs.Float64("read-fraction", 0.5, "fraction of operations that are reads (plan/status)")
	seed := fs.Int64("seed", 1, "seed for program choice, scales, and interleaving")
	out := fs.String("out", "", "write the JSON report here (empty = stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run (clients + self-hosted daemon) here")
	readyTimeout := fs.Duration("ready-timeout", 30*time.Second, "poll the target's /readyz this long before offering load")

	fleetN := fs.Int("fleet", 0, "self-host a fleet: this many corund nodes behind an in-process coordinator (0 = single instance)")
	fleetCap := fs.Float64("fleet-cap", 0, "fleet-wide power budget in watts (0 = N x -cap)")
	balancerFlag := fs.String("balancer", "headroom", "fleet placement policy: roundrobin | leastloaded | affinity | headroom")
	baseline := fs.Bool("baseline", false, "fleet mode: also run a single node at the per-node load share and embed it as the speedup baseline")

	policyFlag := fs.String("policy", "hcs+", "self-hosted instance: epoch policy ("+strings.Join(policy.Names(), " | ")+")")
	capW := fs.Float64("cap", 15, "self-hosted instance: package power cap in watts")
	capPP0 := fs.Float64("cap-pp0", 0, "self-hosted instance: PP0 (CPU core) plane cap in watts (0 = plane uncapped)")
	capPP1 := fs.Float64("cap-pp1", 0, "self-hosted instance: PP1 (iGPU) plane cap in watts (0 = plane uncapped)")
	tmax := fs.Float64("tmax", 0, "self-hosted instance: thermal trip point in Celsius (0 = machine preset)")
	maxQueue := fs.Int("max-queue", 4096, "self-hosted instance: global admission queue bound")
	tenantQueue := fs.Int("tenant-queue", 0, "self-hosted instance: per-tenant queue bound (0 = none)")
	tenantWeights := fs.String("tenant-weights", "", "self-hosted instance: WFQ weights, name=w,... (unlisted tenants weigh 1)")
	maxBatch := fs.Int("max-batch", 0, "self-hosted instance: jobs claimed per epoch (0 = unbounded, disables preemption)")
	epochGap := fs.Duration("epoch-gap", 5*time.Millisecond, "self-hosted instance: epoch batching window")
	fsyncFlag := fs.String("fsync", "always", "self-hosted instance: journal fsync policy")
	dataDir := fs.String("data-dir", "", "self-hosted instance: journal dir (empty = fresh temp dir)")
	inMemory := fs.Bool("in-memory", false, "self-hosted instance: disable journaling entirely")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		return err
	}
	tenants, err := loadgen.ParseTenants(*tenantsFlag)
	if err != nil {
		return err
	}
	weights, err := admission.ParseWeights(*tenantWeights)
	if err != nil {
		return err
	}

	if *fleetN < 0 {
		return fmt.Errorf("negative -fleet %d", *fleetN)
	}
	if *fleetN > 0 && *url != "" {
		return fmt.Errorf("-fleet self-hosts its own nodes; it cannot be combined with -url")
	}

	hc := hostConfig{
		policy:        *policyFlag,
		capW:          *capW,
		capPP0:        *capPP0,
		capPP1:        *capPP1,
		tmaxC:         *tmax,
		maxQueue:      *maxQueue,
		tenantQueue:   *tenantQueue,
		tenantWeights: weights,
		maxBatch:      *maxBatch,
		epochGap:      *epochGap,
		fsync:         *fsyncFlag,
		dataDir:       *dataDir,
		inMemory:      *inMemory,
		seed:          *seed,
	}
	if *url == "" {
		// Characterize once, shared across every self-hosted node in
		// this process (fleet members and the baseline instance) — the
		// fleet deployment shape from the daemon's -char flag.
		hc.mcfg = apu.DefaultConfig()
		if hc.tmaxC != 0 {
			tp := hc.mcfg.Thermal
			tp.TMaxC = hc.tmaxC
			if err := tp.Validate(); err != nil {
				return fmt.Errorf("-tmax: %w", err)
			}
			hc.mcfg = hc.mcfg.WithThermal(tp)
		}
		hc.mem = memsys.Default()
		start := time.Now()
		char, err := model.Characterize(model.CharacterizeOptions{Cfg: hc.mcfg, Mem: hc.mem})
		if err != nil {
			return err
		}
		hc.char = char
		log.Printf("characterized the degradation space in %v", time.Since(start).Round(time.Millisecond))
	}

	budgetW := *fleetCap
	if budgetW == 0 {
		budgetW = float64(*fleetN) * *capW
	}
	baseURL := *url
	if baseURL == "" {
		var shutdown func()
		var addr string
		var err error
		if *fleetN > 0 {
			shutdown, addr, err = selfHostFleet(hc, *fleetN, budgetW, *balancerFlag)
		} else {
			shutdown, addr, err = selfHost(hc)
		}
		if err != nil {
			return err
		}
		defer shutdown()
		baseURL = addr
	}

	cfg := loadgen.Config{
		BaseURL:      baseURL,
		Mode:         loadgen.Mode(*mode),
		Rate:         *rate,
		Concurrency:  *conc,
		Warmup:       *warmup,
		Duration:     *duration,
		Mix:          mix,
		Tenants:      tenants,
		ReadFraction: *readFrac,
		Seed:         *seed,
		ReadyTimeout: *readyTimeout,
	}
	log.Printf("driving %s: mode=%s duration=%v warmup=%v", baseURL, *mode, *duration, *warmup)
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if *url == "" {
		// Self-hosted run: disclose the serving conditions in the report.
		rep.Config.Policy = hc.policy
		rep.Config.HostCPUs = runtime.NumCPU()
		rep.Config.GOGC = os.Getenv("GOGC")
	}
	if *fleetN > 0 {
		snap, err := loadgen.FleetSnapshot(ctx, nil, baseURL)
		if err != nil {
			return err
		}
		snap.BudgetWatts = budgetW
		snap.HostCPUs = runtime.NumCPU()
		var baseRep *loadgen.Report
		if *baseline {
			baseRep, err = runBaseline(ctx, hc, cfg, *fleetN)
			if err != nil {
				return err
			}
		}
		rep.AttachFleet(snap, baseRep)
		log.Printf("fleet: %d nodes, max one-sided fraction %.2f", snap.Nodes, snap.MaxOneSidedFraction)
		if snap.SpeedupVsBaseline > 0 {
			log.Printf("fleet: %.2fx the single-node baseline throughput", snap.SpeedupVsBaseline)
		}
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rep.Write(w); err != nil {
		return err
	}
	log.Printf("throughput %.1f req/s (%.1f accepted submits/s), %d accepted / %d rejected / %d errors",
		rep.ThroughputRPS, rep.SubmitThroughputRPS, rep.Accepted, rep.Rejected, rep.Errors)
	return nil
}

// hostConfig configures the self-hosted corund instances corunbench
// launches when no -url is given. mcfg/mem/char are measured once in
// run() and shared by every instance in the process.
type hostConfig struct {
	policy        string
	capW          float64
	capPP0        float64
	capPP1        float64
	tmaxC         float64
	maxQueue      int
	tenantQueue   int
	tenantWeights map[string]float64
	maxBatch      int
	epochGap      time.Duration
	fsync         string
	dataDir       string
	inMemory      bool
	seed          int64
	nodeID        string

	mcfg *apu.Config
	mem  *memsys.Model
	char *model.Characterization
}

// selfHost launches an in-process corund on a loopback port and
// returns its base URL plus a clean-drain shutdown.
func selfHost(hc hostConfig) (func(), string, error) {
	pol, err := policy.Canonical(hc.policy)
	if err != nil {
		return nil, "", err
	}
	fsyncPol, err := journal.ParseFsyncPolicy(hc.fsync)
	if err != nil {
		return nil, "", err
	}
	dataDir := hc.dataDir
	var cleanupDir func()
	switch {
	case hc.inMemory:
		dataDir = ""
	case dataDir == "":
		tmp, err := os.MkdirTemp("", "corunbench-data-*")
		if err != nil {
			return nil, "", err
		}
		dataDir = tmp
		cleanupDir = func() { os.RemoveAll(tmp) }
	}

	s, err := server.New(server.Config{
		Machine:       hc.mcfg,
		Mem:           hc.mem,
		Char:          hc.char,
		Cap:           units.Watts(hc.capW),
		Domains:       apu.DomainCaps{PP0: units.Watts(hc.capPP0), PP1: units.Watts(hc.capPP1)},
		Policy:        pol,
		Seed:          hc.seed,
		MaxQueue:      hc.maxQueue,
		TenantQueue:   hc.tenantQueue,
		TenantWeights: hc.tenantWeights,
		MaxBatch:      hc.maxBatch,
		EpochGap:      hc.epochGap,
		DataDir:       dataDir,
		Fsync:         fsyncPol,
		NodeID:        hc.nodeID,
	})
	if err != nil {
		if cleanupDir != nil {
			cleanupDir()
		}
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if cleanupDir != nil {
			cleanupDir()
		}
		s.Close()
		return nil, "", err
	}
	s.Start(context.Background())
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	durability := "in-memory"
	if dataDir != "" {
		durability = fmt.Sprintf("journal %s, fsync %s", dataDir, fsyncPol)
	}
	identity := ""
	if hc.nodeID != "" {
		identity = fmt.Sprintf("node %s, ", hc.nodeID)
	}
	log.Printf("self-hosted corund on %s (%spolicy %s, cap %gW, %s)", ln.Addr(), identity, pol, hc.capW, durability)

	shutdown := func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.DrainAndWait(drainCtx); err != nil {
			log.Printf("drain: %v", err)
		}
		if err := s.Close(); err != nil {
			log.Printf("close: %v", err)
		}
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		srv.Shutdown(shutCtx)
		if cleanupDir != nil {
			cleanupDir()
		}
	}
	return shutdown, "http://" + ln.Addr().String(), nil
}

// selfHostFleet launches n corund nodes (IDs n0..n<n-1>, distinct
// seeds and journals, the shared characterization) plus an in-process
// fleet coordinator fronting them, and returns the coordinator's base
// URL. Shutdown drains the nodes through the coordinator's own
// lifecycle: coordinator first (no new placements), then each node.
func selfHostFleet(hc hostConfig, n int, budgetW float64, balancer string) (func(), string, error) {
	bal, err := cluster.ParseBalancer(balancer)
	if err != nil {
		return nil, "", err
	}
	var shutdowns []func()
	shutdownAll := func() {
		for i := len(shutdowns) - 1; i >= 0; i-- {
			shutdowns[i]()
		}
	}
	nodes := make([]fleet.NodeConfig, n)
	for i := 0; i < n; i++ {
		nhc := hc
		nhc.nodeID = fmt.Sprintf("n%d", i)
		nhc.seed = hc.seed + int64(i)
		nhc.dataDir = "" // never share one -data-dir across nodes
		stop, addr, err := selfHost(nhc)
		if err != nil {
			shutdownAll()
			return nil, "", err
		}
		shutdowns = append(shutdowns, stop)
		nodes[i] = fleet.NodeConfig{ID: nhc.nodeID, URL: addr}
	}
	co, err := fleet.New(fleet.Config{
		Nodes:             nodes,
		BudgetW:           budgetW,
		Balancer:          bal,
		Machine:           hc.mcfg,
		Mem:               hc.mem,
		HealthInterval:    100 * time.Millisecond,
		RebalanceInterval: 500 * time.Millisecond,
		PlanCacheTTL:      50 * time.Millisecond,
	})
	if err != nil {
		shutdownAll()
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownAll()
		return nil, "", err
	}
	co.Start(context.Background())
	srv := &http.Server{Handler: co.Handler()}
	go srv.Serve(ln)
	log.Printf("self-hosted fleet coordinator on %s (%d nodes, balancer %s, budget %gW)",
		ln.Addr(), n, bal, budgetW)
	shutdowns = append(shutdowns, func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
		co.Stop()
	})
	return shutdownAll, "http://" + ln.Addr().String(), nil
}

// runBaseline measures a fresh single node under the per-node share
// of the fleet's offered load (concurrency or rate divided by the
// node count) — the weak-scaling baseline the fleet speedup is
// reported against.
func runBaseline(ctx context.Context, hc hostConfig, cfg loadgen.Config, n int) (*loadgen.Report, error) {
	shutdown, addr, err := selfHost(hc)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	cfg.BaseURL = addr
	if cfg.Mode == loadgen.ModeClosed {
		cfg.Concurrency = cfg.Concurrency / n
		if cfg.Concurrency < 1 {
			cfg.Concurrency = 1
		}
	} else {
		cfg.Rate = cfg.Rate / float64(n)
	}
	log.Printf("baseline: driving single node %s at the per-node load share", addr)
	return loadgen.Run(ctx, cfg)
}
