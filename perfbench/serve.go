package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"malnet/internal/colstore"
	"malnet/internal/core"
	"malnet/internal/lake"
	"malnet/internal/serve"
)

// serveSpec is what distinguishes the two read workloads.
type serveSpec struct {
	rate    float64       // nominal open-loop rate, requests per second
	limitMs float64       // latency limit on the tail percentile
	top     float64       // top of the max-rate search range
	stepDur time.Duration // length of one search step
	// handlerPaths is how many schedule paths the traced run replays
	// through an in-process handler.
	handlerPaths int
}

var serveSpecs = map[string]serveSpec{
	"serve-zipf": {rate: 2000, limitMs: 10, top: 128000, stepDur: 2 * time.Second, handlerPaths: 2000},
	// A time-travel request costs about 35 ms of daemon CPU on 2 cores,
	// so 25/s keeps the daemon near half busy: far enough below its
	// 45-60/s capacity that latency measures service, not a queue.
	"serve-timetravel": {rate: 25, limitMs: 250, top: 1600, stepDur: 3 * time.Second, handlerPaths: 60},
}

const (
	// lateShare is the largest generator lateness a valid run allows,
	// as a share of the latency limit: a generator later than the
	// limit has spent it before sending. Lateness is taken at p99, as
	// the median over windows of the nominal phase, so one stall of
	// the machine does not void a run but a starved generator does.
	lateShare = 1.0
	// refineSteps bisects the max-rate bracket this many times.
	refineSteps = 4
	// spotChecks is about how many nominal-phase responses are
	// compared byte for byte with an in-process handler.
	spotChecks = 40
	// capacityDur is the length of the traced run's closed-loop
	// capacity phase.
	capacityDur = 5 * time.Second
	// abandonAfter drops a request still unsent this long after its
	// due time. It is far above both latency limits, so only an
	// overloaded search step drops requests, and it bounds how long
	// such a step takes to drain.
	abandonAfter = time.Second
)

// runServe measures one malnetd read workload against the fixture
// lake: set-up, a warm-up second and the nominal-rate phase; a traced
// run then measures closed-loop capacity, searches for the highest
// rate that holds the latency limit and times the layers.
func runServe(cfg config, spec serveSpec, res *result) error {
	lakeDir, err := ensureFixture(cfg)
	if err != nil {
		return err
	}
	next, _, err := workloadSource(cfg, lakeDir)
	if err != nil {
		return err
	}

	// Set-up: setupRuns fresh daemons, keeping the last.
	var setups []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		if d, took, err = startDaemon(cfg.malnetd, lakeDir); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { d.stop() }()
	res.e2e["setup_s"] = median(setups)

	tr := cfg.tracer
	conns := min(2, runtime.NumCPU())
	loop := newGenerator(d.base, conns, abandonAfter, tr)
	defer loop.close()

	runID := tr.start("serve.run", 0)
	warm := loop.run(spec.rate, time.Second, next, 0, runID)
	v0, err := d.vars()
	if err != nil {
		return fmt.Errorf("reading daemon vars: %w", err)
	}
	m0, err := d.scrape()
	if err != nil {
		return fmt.Errorf("scraping daemon metrics: %w", err)
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	nominalDur := time.Duration(cfg.seconds) * time.Second
	spotEvery := max(1, int(spec.rate*nominalDur.Seconds())/spotChecks)
	nomID := tr.start("serve.nominal", runID)
	nom := loop.run(spec.rate, nominalDur, next, spotEvery, nomID)
	tr.end(nomID)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	v1, err := d.vars()
	if err != nil {
		return fmt.Errorf("reading daemon vars: %w", err)
	}
	m1, err := d.scrape()
	if err != nil {
		return fmt.Errorf("scraping daemon metrics: %w", err)
	}
	rss, err := peakRSSMiB(d.pid())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: warm-up %v\nperfbench: nominal %v\n", warm, nom)

	res.attempted += warm.sent + nom.sent
	res.failed += warm.failed() + nom.failed()
	reqs := float64(nom.sent)
	res.e2e["p50_ms"] = nom.tail(0.5)
	res.e2e["p95_ms"] = nom.tail(tailQ)
	res.e2e["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / reqs
	// The daemon's throughput is taken per second of its own CPU time:
	// wall-clock capacity on a shared 2-core machine measures the
	// neighbours and the generator as much as the daemon.
	res.e2e["ops_per_s"] = float64(nom.ok) / (cpu1 - cpu0).Seconds()
	res.e2e["allocs_per_op"] = float64(v1.Memstats.Mallocs-v0.Memstats.Mallocs) / reqs
	res.e2e["peak_rss_mb"] = rss

	late99 := windowedPercentile(nom.lateMs, 0.99)
	if late99 > lateShare*spec.limitMs {
		return fmt.Errorf("load generator ran late: p99 lateness %.2fms exceeds %.0f%% of the %.0fms limit", late99, 100*lateShare, spec.limitMs)
	}

	if tr != nil {
		capID := tr.start("serve.capacity", runID)
		sent, bad, capacity := loop.closed(capacityDur, next)
		tr.end(capID)
		fmt.Fprintf(os.Stderr, "perfbench: closed loop on %d connections: %.1f/s, %d of %d not 200\n", conns, capacity, bad, sent)
		res.attempted += sent
		res.failed += bad
		res.layer["serve.closed_loop_ops_per_s"] = capacity

		searchID := tr.start("serve.search", runID)
		first := step{rate: spec.rate, achieved: nom.achieved(), pass: nom.meets(spec.limitMs)}
		best, err := searchMaxRate(first, spec.top, refineSteps, func(rate float64) step {
			time.Sleep(200 * time.Millisecond) // let the previous step's connections settle
			p := loop.run(rate, spec.stepDur, next, 0, searchID)
			fmt.Fprintf(os.Stderr, "perfbench: search %v\n", p)
			if p.bad > 0 {
				res.correct = false
				fmt.Fprintf(os.Stderr, "perfbench: %d non-200 responses at %.0f/s\n", p.bad, rate)
			}
			return step{rate: rate, achieved: p.achieved(), pass: p.meets(spec.limitMs)}
		})
		tr.end(searchID)
		if err != nil {
			return fmt.Errorf("max-rate search: %w", err)
		}
		res.layer["serve.max_rate_at_limit"] = best.achieved
	}
	tr.end(runID)
	d.stop()

	// The reference is built only now, so the load generator's heap
	// stays small while it measures.
	ref, err := serve.New(lakeDir, nil)
	if err != nil {
		return fmt.Errorf("in-process server: %w", err)
	}
	h := ref.Handler()
	for _, s := range nom.spots {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, s.path, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), s.body) {
			res.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: daemon body differs from the in-process handler\n", s.path)
		}
	}
	if len(nom.spots) == 0 {
		res.correct = false
		fmt.Fprintln(os.Stderr, "perfbench: no responses were kept for the byte-for-byte check")
	}

	if tr == nil {
		return nil
	}
	l := res.layer
	l["serve.client_p99_ms"] = percentile(nom.latMs, 0.99)
	l["serve.service_p50_ms"] = serviceQuantile(m0, m1, 0.5)
	l["serve.service_p99_ms"] = serviceQuantile(m0, m1, 0.99)
	l["serve.queue_ms"] = percentile(nom.latMs, 0.5) - l["serve.service_p50_ms"]
	hits := m1.sum("malnetd_cache_outcomes_total", map[string]string{"outcome": "hit"}) -
		m0.sum("malnetd_cache_outcomes_total", map[string]string{"outcome": "hit"})
	outcomes := m1.sum("malnetd_cache_outcomes_total", nil) - m0.sum("malnetd_cache_outcomes_total", nil)
	if outcomes > 0 {
		l["serve.cache_hit_ratio"] = hits / outcomes
	}
	l["serve.rows_scanned_per_req"] = (m1.sum("malnetd_rows_scanned_total", nil) - m0.sum("malnetd_rows_scanned_total", nil)) / reqs
	l["runtime.gc_cycles"] = float64(v1.Memstats.NumGC - v0.Memstats.NumGC)
	l["runtime.gc_pause_ms"] = float64(v1.Memstats.PauseTotalNs-v0.Memstats.PauseTotalNs) / 1e6
	l["loadgen.late_p50_ms"] = percentile(nom.lateMs, 0.5)
	l["loadgen.late_p99_ms"] = late99
	// Only the nominal phase's request spans fall inside a timed window.
	l["trace.overhead_pct"] = 100 * float64(nom.sent) * float64(spanCost()) / float64(nominalDur)
	return serveLayers(cfg, spec, lakeDir, res)
}

// serveLayers times the read path's layers one call at a time, on a
// fresh copy of the workload's schedule, with the daemon stopped.
func serveLayers(cfg config, spec serveSpec, lakeDir string, res *result) error {
	tr, l := cfg.tracer, res.layer
	root := tr.start("layers", 0)
	defer tr.end(root)
	lk, err := lake.Open(lakeDir)
	if err != nil {
		return err
	}
	head, err := lk.Head("main")
	if err != nil {
		return err
	}
	ref, err := serve.New(lakeDir, nil)
	if err != nil {
		return err
	}
	next, days, err := workloadSource(cfg, lakeDir)
	if err != nil {
		return err
	}
	paths := make([]string, spec.handlerPaths)
	for i := range paths {
		paths[i] = next()
	}

	// Snapshot decode and store build: the head only on serve-zipf
	// (what daemon start-up does), the schedule's generations on
	// serve-timetravel (what a time-travel miss does).
	var commits []*lake.Commit
	if days == nil {
		for i := 0; i < 5; i++ {
			commits = append(commits, head)
		}
	} else {
		rng := rand.New(rand.NewSource(cfg.seed))
		for i := 0; i < 30; i++ {
			day := days[rng.Intn(len(days))]
			id := tr.start("lake.resolve", root)
			c, err := lk.ResolveSelector("main", day)
			tr.end(id)
			if err != nil {
				return err
			}
			commits = append(commits, c)
		}
		l["lake.resolve_ms_p50"] = median(tr.durations("lake.resolve", time.Millisecond))
	}
	for _, c := range commits {
		id := tr.start("core.open_snapshot", root)
		ss, reg, err := core.OpenSnapshotAt(lk.ObjectPath(c.Snapshot))
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("serve.build_store", root)
		serve.BuildStore(ss, reg)
		tr.end(id)
		id = tr.start("colstore.encode", root)
		colstore.Encode(ss.Datasets.Samples)
		tr.end(id)
	}
	open := tr.durations("core.open_snapshot", time.Millisecond)
	l["core.open_snapshot_ms_p50"] = median(open)
	l["core.open_snapshot_ms_p99"] = percentile(open, 0.99)
	l["serve.build_store_ms_p50"] = median(tr.durations("serve.build_store", time.Millisecond))
	l["colstore.encode_ms"] = median(tr.durations("colstore.encode", time.Millisecond))

	// Query engine: parse, compile and run the schedule's /v1/query
	// expressions against the head store's columns.
	batch := ref.Store().Batch()
	for _, p := range paths {
		expr := queryExpr(p)
		if expr == "" {
			continue
		}
		id := tr.start("colstore.query", root)
		q, err := colstore.Parse(expr)
		if err == nil {
			var plan *colstore.Plan
			if plan, err = batch.Compile(q); err == nil {
				plan.Run()
			}
		}
		tr.end(id)
		if err != nil {
			return fmt.Errorf("query %q: %w", expr, err)
		}
	}
	l["colstore.query_us_p50"] = median(tr.durations("colstore.query", time.Microsecond))

	// Handler: a fresh in-process server, the schedule once cold and
	// once replayed.
	fresh, err := serve.New(lakeDir, nil)
	if err != nil {
		return err
	}
	h := fresh.Handler()
	for _, name := range []string{"serve.handler_cold", "serve.handler_hot"} {
		for _, p := range paths {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, p, nil)
			id := tr.start(name, root)
			h.ServeHTTP(rec, req)
			tr.end(id)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process %s: status %d", p, rec.Code)
			}
		}
	}
	l["serve.handler_cold_us_p50"] = median(tr.durations("serve.handler_cold", time.Microsecond))
	l["serve.handler_hot_us_p50"] = median(tr.durations("serve.handler_hot", time.Microsecond))
	return nil
}

// workloadSource returns the run's request schedule and, on
// serve-timetravel, the commit days it draws asof= from. The zipf
// schedule resolves C2 ranks against the head store's address index,
// which the daemon's /v1/c2 lists in the same order.
func workloadSource(cfg config, lakeDir string) (pathSource, []int, error) {
	if cfg.workload != "serve-timetravel" {
		ref, err := serve.New(lakeDir, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("in-process server: %w", err)
		}
		return zipfSource(cfg.seed, ref.Store().C2Addresses()), nil, nil
	}
	days, err := commitDays(lakeDir)
	if err != nil {
		return nil, nil, err
	}
	return timeTravelSource(cfg.seed, days), days, nil
}

// commitDays lists the study days the fixture lake's main branch has
// commits for.
func commitDays(lakeDir string) ([]int, error) {
	lk, err := lake.Open(lakeDir)
	if err != nil {
		return nil, err
	}
	log, err := lk.Log("main")
	if err != nil {
		return nil, err
	}
	if len(log) == 0 {
		return nil, fmt.Errorf("fixture lake %s has no commits", lakeDir)
	}
	days := make([]int, len(log))
	for i, c := range log {
		days[len(log)-1-i] = c.Day
	}
	return days, nil
}
