package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/envdb"
	"envmon/internal/faults"
	"envmon/internal/lifecycle"
	"envmon/internal/obs"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
	"envmon/internal/workload"
)

// config carries every envmond knob, so the daemon is constructible from a
// test without flag parsing.
type config struct {
	listen      string
	nodes       int
	shards      int
	storeShards int
	workers     int
	interval    time.Duration
	epoch       time.Duration
	tick        time.Duration
	duration    time.Duration
	cycle       time.Duration
	seed        uint64
	bgqRacks    int
	envdbIvl    time.Duration
	// faultSpec, when non-empty, decorates the backend registry with a
	// deterministic fault injector (see faults.ParsePlan for the syntax).
	faultSpec string
	// resilient wraps every collector in a retry + circuit-breaker chain
	// with the paper's fallback topology (cluster.DefaultChains) and
	// surfaces breaker state on /healthz.
	resilient bool
	// dataDir, when non-empty, opens the telemetry store persistently
	// there: ingest is journaled write-ahead, sealed data compacts to
	// blocks, and a restart recovers the full history and keeps ingesting
	// past it.
	dataDir string
	// debugAddr, when non-empty, binds a second listener serving /metrics,
	// net/http/pprof, and /debug/slowops — the operator-only surface, kept
	// off the main API address.
	debugAddr string
	// accessLog logs one structured line per HTTP request through cfg.logf.
	accessLog bool
	// slowOp is the slow-operation threshold: queries and compactions
	// slower than this land in the slow-op ring (0 disables the ring).
	slowOp time.Duration
	logf   func(format string, args ...any)
}

// daemon is an assembled envmond: simulated cluster, telemetry store,
// producers, and the HTTP server, ready to run.
type daemon struct {
	cfg     config
	store   *telemetry.Store
	cluster *cluster.Cluster
	domains *cluster.Domains
	work    workload.Workload
	cursors []*telemetry.SetCursor
	bridge  *telemetry.EnvDBBridge
	api     *httpapi.Server
	srv     *http.Server
	ln      net.Listener

	// Self-observability: the daemon watches itself with the same care it
	// watches the machine room. Always on — the registry costs nothing
	// until scraped.
	reg      *obs.Registry
	tracer   *obs.Tracer
	slow     *obs.SlowLog
	started  time.Time
	debugSrv *http.Server
	debugLn  net.Listener
	// offset maps the fresh simulation clock (restarts at zero) onto the
	// recovered store's timeline: every ingest and the reported sim-now are
	// shifted by it, so a restarted daemon appends after the history it
	// recovered instead of colliding with it.
	offset time.Duration

	mu     sync.Mutex
	chains []chainEntry // per-node resilience chains, for /healthz
}

type chainEntry struct {
	node   string
	chains []*resilience.Collector
}

// newDaemon builds the daemon and binds the listen address (so a caller
// with ":0" can read the real port from Addr before running).
func newDaemon(cfg config) (*daemon, error) {
	if cfg.nodes <= 0 {
		return nil, fmt.Errorf("nodes must be positive")
	}
	if cfg.epoch <= 0 || cfg.tick <= 0 {
		return nil, fmt.Errorf("epoch and tick must be positive")
	}
	if cfg.cycle <= 0 {
		return nil, fmt.Errorf("cycle must be positive")
	}
	if cfg.logf == nil {
		cfg.logf = log.Printf
	}

	d := &daemon{cfg: cfg, started: time.Now()}
	d.reg = obs.NewRegistry()
	d.tracer = obs.NewTracer(d.reg)
	d.slow = obs.NewSlowLog(d.reg, cfg.slowOp, 256)
	if cfg.dataDir != "" {
		st, err := telemetry.Open(cfg.dataDir, telemetry.Options{Shards: cfg.storeShards})
		if err != nil {
			return nil, fmt.Errorf("opening data dir: %w", err)
		}
		d.store = st
		// Resume after the recovered history, rounded up to the next epoch
		// boundary so the first barrier flush is strictly past everything
		// recovered.
		if maxT := st.MaxTime(); maxT > 0 {
			d.offset = (maxT/cfg.epoch + 1) * cfg.epoch
			rec := st.StorageStats().Recovery
			cfg.logf("envmond: recovered %d series (%d journaled samples, %d gaps) from %s; resuming at %v",
				rec.Series, rec.Samples, rec.Gaps, cfg.dataDir, d.offset)
		}
	} else {
		d.store = telemetry.New(telemetry.Options{Shards: cfg.storeShards})
	}
	d.store.Instrument(d.reg, d.tracer, d.slow)

	// The monitored machine: a Stampede-shaped partition on sharded clock
	// domains, every node profiled by MonEQ on its own domain.
	c, err := cluster.NewStampede(cfg.nodes, cfg.seed)
	if err != nil {
		return nil, err
	}
	d.cluster = c
	d.work = workload.PhiGauss(100*time.Second, 140*time.Second)
	c.Run(d.work, 0, 50*time.Millisecond)
	d.domains = c.Domains(cfg.shards)

	jobCfg := cluster.DomainJobConfig{Interval: cfg.interval}
	var plan faults.Plan
	base := core.DefaultRegistry
	if cfg.faultSpec != "" {
		plan, err = faults.ParsePlan(cfg.faultSpec, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("bad -faults: %w", err)
		}
		base = faults.Decorate(base, plan)
	}
	// Instrumentation wraps outermost, so it observes the same (possibly
	// faulty) collector the rest of the stack sees.
	jobCfg.Registry = obs.Decorate(base, d.reg, d.tracer)
	if cfg.resilient {
		jobCfg.Resilience = &resilience.Policy{Hooks: d.resilienceHooks()}
		jobCfg.OnResilience = func(node string, chains []*resilience.Collector) {
			d.mu.Lock()
			d.chains = append(d.chains, chainEntry{node: node, chains: chains})
			d.mu.Unlock()
		}
		d.registerBreakerGauges()
	}
	job, err := d.domains.StartJob(jobCfg)
	if err != nil {
		return nil, err
	}
	d.cursors = make([]*telemetry.SetCursor, len(job.Monitors()))
	for i, m := range job.Monitors() {
		d.cursors[i] = telemetry.NewSetCursor(d.store, m.Node(), m.Set())
		d.cursors[i].Offset = d.offset
	}

	// The second producer: a BG/Q machine shipping records through the
	// environmental database, drained into the same store by the bridge.
	if cfg.bgqRacks > 0 {
		machine := bgq.New(bgq.Config{Name: "bgq", Racks: cfg.bgqRacks, Seed: cfg.seed})
		machine.Run(workload.MMPS(cfg.cycle), 0)
		db := envdb.New()
		if _, err := machine.StartEnvironmentalPoller(d.domains.Clock(0), db, cfg.envdbIvl); err != nil {
			return nil, err
		}
		d.bridge, err = telemetry.StartEnvDBBridge(d.domains.Clock(0), db, d.store, cfg.envdbIvl)
		if err != nil {
			return nil, err
		}
		d.bridge.Offset = d.offset
	}

	// Daemon-level gauges: uptime feeds the ingest-rate estimate in
	// envtop's header; sim-now lets a scrape correlate wall and simulated
	// timelines without a /healthz call.
	d.reg.GaugeFunc("envmon_uptime_seconds",
		"Daemon wall-clock uptime.",
		func() float64 { return time.Since(d.started).Seconds() })
	d.reg.GaugeFunc("envmon_sim_now_seconds",
		"Current simulated time, including any recovery offset.",
		func() float64 { return (d.domains.Now() + d.offset).Seconds() })

	api := httpapi.New(d.store, func() time.Duration { return d.domains.Now() + d.offset })
	d.api = api
	api.Instrument(d.reg)
	if cfg.accessLog {
		api.SetAccessLog(func(method, path string, status int, dur time.Duration, bytes int64) {
			cfg.logf("envmond: access %s %s %d %dB %s", method, path, status, bytes, dur)
		})
	}
	if cfg.faultSpec != "" {
		api.SetFaults(plan.String())
	}
	if cfg.resilient {
		api.SetBreakers(d.backendHealth)
	}
	d.ln, err = net.Listen("tcp", cfg.listen)
	if err != nil {
		return nil, err
	}
	d.srv = &http.Server{Handler: api}
	if cfg.debugAddr != "" {
		d.debugLn, err = net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			d.ln.Close()
			return nil, fmt.Errorf("binding -debug-addr: %w", err)
		}
		d.debugSrv = &http.Server{Handler: d.debugMux()}
	}
	return d, nil
}

// resilienceHooks adapts the chains' observation surface onto the metrics
// registry. The hooks run under each chain's lock on the polling
// goroutine: the poll hook touches only pre-interned handles; retry and
// transition hooks intern through the registry's get-or-create, which is
// one map lookup and acceptable for events that are rare by construction.
func (d *daemon) resilienceHooks() resilience.Hooks {
	stage := d.tracer.Stage("resilience")
	fallbacks := d.reg.Counter("envmon_resilience_fallbacks_total",
		"Polls answered by a non-primary source.")
	dropped := d.reg.Counter("envmon_resilience_dropped_polls_total",
		"Polls no source could answer.")
	return resilience.Hooks{
		Retry: func(method string) {
			d.reg.Counter("envmon_resilience_retries_total",
				"Backoff retries, by retried source method.",
				"method", method).Inc()
		},
		Transition: func(method string, from, to resilience.State) {
			d.reg.Counter("envmon_breaker_transitions_total",
				"Breaker state transitions, by source method and new state.",
				"method", method, "to", to.String()).Inc()
			d.cfg.logf("envmond: breaker %s: %s -> %s", method, from, to)
		},
		Poll: func(served string, wall, sim time.Duration, fellBack bool) {
			stage.Observe(wall, sim)
			if served == "" {
				dropped.Inc()
			} else if fellBack {
				fallbacks.Inc()
			}
		},
	}
}

// registerBreakerGauges publishes the /healthz breaker view as
// envmon_breaker_sources{state} gauges, computed at scrape time from the
// same chain snapshot.
func (d *daemon) registerBreakerGauges() {
	count := func(state string) func() float64 {
		return func() float64 {
			n := 0
			for _, b := range d.backendHealth() {
				for _, s := range b.Sources {
					if s.State == state {
						n++
					}
				}
			}
			return float64(n)
		}
	}
	for _, state := range []string{"closed", "open", "half-open"} {
		d.reg.GaugeFunc("envmon_breaker_sources",
			"Chain sources by breaker state.", count(state), "state", state)
	}
}

// debugMux assembles the operator-only debug surface: the same /metrics
// exposition as the API listener, the net/http/pprof handlers, and the
// slow-op ring as JSON.
func (d *daemon) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", d.reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/slowops", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		resp := struct {
			ThresholdNS time.Duration `json:"threshold_ns"`
			Total       uint64        `json:"total"`
			Ops         []obs.SlowOp  `json:"ops"`
		}{d.slow.Threshold(), d.slow.Total(), d.slow.Snapshot()}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			d.cfg.logf("envmond: /debug/slowops: %v", err)
		}
	})
	return mux
}

// Addr reports the bound listen address.
func (d *daemon) Addr() string { return d.ln.Addr().String() }

// DebugAddr reports the bound debug listen address ("" when -debug-addr
// is off).
func (d *daemon) DebugAddr() string {
	if d.debugLn == nil {
		return ""
	}
	return d.debugLn.Addr().String()
}

// backendHealth snapshots every chain's breaker state for /healthz. Chains
// guard their status with a lock, so this is safe against concurrent
// domain polls.
func (d *daemon) backendHealth() []httpapi.BackendHealth {
	d.mu.Lock()
	entries := d.chains
	d.mu.Unlock()
	var out []httpapi.BackendHealth
	for _, e := range entries {
		for _, ch := range e.chains {
			bh := httpapi.BackendHealth{Node: e.node, Method: ch.Method()}
			for _, s := range ch.Status() {
				bh.Sources = append(bh.Sources, httpapi.SourceHealth{
					Method: s.Method, State: s.State, Trips: s.Trips,
				})
			}
			out = append(out, bh)
		}
	}
	return out
}

// run serves and advances until ctx is cancelled, then shuts down: the
// HTTP server drains, the advance loop parks, and a final cursor flush
// moves every staged sample into the store so nothing collected is lost.
func (d *daemon) run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Advance loop: every wall tick, step the domains one epoch and flush
	// the per-node cursors at the barrier (domains parked, sets quiescent).
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		ticker := time.NewTicker(d.cfg.tick)
		defer ticker.Stop()
		nextCycle := d.cfg.cycle
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			if d.cfg.duration > 0 && d.domains.Now() >= d.cfg.duration {
				continue // cap reached: keep serving, stop advancing
			}
			target := d.domains.Now() + d.cfg.epoch
			d.domains.AdvanceEpochs(target, d.cfg.epoch, d.cfg.workers, func(now time.Duration) {
				d.flush()
				if now >= nextCycle {
					d.cluster.Run(d.work, now, 50*time.Millisecond)
					nextCycle = now + d.cfg.cycle
				}
			})
		}
	}()

	// The debug listener stops with ctx, beside the API server's drain.
	dbgDone := make(chan struct{})
	go func() {
		defer close(dbgDone)
		if d.debugSrv == nil {
			return
		}
		if e := lifecycle.Serve(ctx, d.debugSrv, d.debugLn, nil); e != nil {
			d.cfg.logf("envmond: debug server: %v", e)
		}
	}()
	err := lifecycle.Serve(ctx, d.srv, d.ln, func() {
		cancel()
		// From here on the store is headed for Close: answer data-plane
		// requests racing the drain with an explicit 503 instead of
		// letting them hang in Shutdown or hit a half-closed store.
		d.api.StartClosing()
		<-advDone
	})
	<-dbgDone
	// The loop is parked and no domain is advancing: one final flush
	// drains everything the samplers staged since the last barrier.
	d.flush()
	if d.bridge != nil {
		d.bridge.Stop()
	}
	// Seal the in-memory tail into blocks before exiting, so the next
	// start recovers from blocks alone and the journal stays empty.
	if d.cfg.dataDir != "" {
		if ferr := d.store.Flush(); ferr != nil {
			d.cfg.logf("envmond: final flush: %v", ferr)
		}
	}
	d.store.Close()
	return err
}

// flush moves every cursor's backlog into the store. Call only with the
// clock domains parked.
func (d *daemon) flush() {
	for _, cur := range d.cursors {
		if err := cur.Flush(); err != nil {
			d.cfg.logf("envmond: %v", err)
		}
	}
}
