// Command perfbench is MalNet's end-to-end benchmark. One run measures
// one workload and prints, as its last line, a JSON object with the
// output check's verdict, operations attempted and failed, and the
// workload's metrics: the end-to-end metrics by default, the
// per-layer metrics with -trace 1. See README.md for the workloads,
// the metrics and how to run it; run.sh builds it and the daemon.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"malnet/internal/world"
)

// tailQ is the tail percentile every workload reports: the highest
// one that keeps at least ten samples beyond it on the smallest
// workload (about 215 day batches in a study).
const tailQ = 0.95

// setupRuns is how many times a run sets up; setup_s is the median.
const setupRuns = 9

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the set every untraced run reports, on every workload.
// An op is one committed day batch on study-year and one request on
// the serve workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is the set every traced run reports. A layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"world.generate_s", "s"},
	{"core.encode_s", "s"},
	{"binfmt.encode_us_p50", "us"},
	{"binfmt.parse_us_p50", "us"},
	{"core.static_isolated_s", "s"},
	{"sandbox.run_ms_p50", "ms"},
	{"sandbox.run_ms_p99", "ms"},
	{"yara.match_us_p50", "us"},
	{"core.worker_busy_s", "s"},
	{"core.parallel_eff", "ratio"},
	{"core.merge_live_s", "s"},
	{"core.serial_frac", "ratio"},
	{"core.probe_campaign_s", "s"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.object_mb", "MiB"},
	{"lake.commits", "count"},
	{"lake.commit_ms_p50", "ms"},
	{"lake.commit_ms_p99", "ms"},
	{"lake.mb", "MiB"},
	{"lake.resolve_ms_p50", "ms"},
	{"core.open_snapshot_ms_p50", "ms"},
	{"core.open_snapshot_ms_p99", "ms"},
	{"serve.build_store_ms_p50", "ms"},
	{"colstore.encode_ms", "ms"},
	{"colstore.query_us_p50", "us"},
	{"serve.handler_cold_us_p50", "us"},
	{"serve.handler_hot_us_p50", "us"},
	{"serve.client_p99_ms", "ms"},
	{"serve.max_rate_at_limit", "1/s"},
	{"serve.closed_loop_ops_per_s", "1/s"},
	{"serve.service_p50_ms", "ms"},
	{"serve.service_p99_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rows_scanned_per_req", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var workloads = []string{"study-year", "serve-zipf", "serve-timetravel"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	malnetd  string // path of the malnetd binary under test
	cache    string // directory kept between runs: fixture lake, digests
	codeKey  string // identity of the built code; keys the cache
	work     string // scratch directory of this run, removed at exit
	tracer   *tracer
}

// result is what a run prints.
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	makeFixture := flag.Bool("make-fixture", false, "write the serve fixture lake into the cache and exit")
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.StringVar(&cfg.malnetd, "malnetd", "", "malnetd binary under test")
	flag.StringVar(&cfg.cache, "cache", "", "directory kept between runs")
	flag.StringVar(&cfg.codeKey, "code-key", "", "identity of the built code")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.cache == "" || cfg.codeKey == "" {
		return fail(errors.New("-cache and -code-key are required (run.sh sets them)"))
	}
	if *makeFixture {
		if _, err := ensureFixture(cfg); err != nil {
			return fail(err)
		}
		return 0
	}
	if cfg.seconds < 1 {
		return fail(fmt.Errorf("-seconds %d: want at least 1", cfg.seconds))
	}
	// Work directories of runs that were killed hold whole lakes.
	stale, _ := filepath.Glob(filepath.Join(cfg.cache, "run-*"))
	for _, dir := range stale {
		if err := os.RemoveAll(dir); err != nil {
			return fail(err)
		}
	}
	var err error
	if cfg.work, err = os.MkdirTemp(cfg.cache, "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.work)
	if *trace == 1 {
		cfg.tracer = newTracer()
	}

	res := &result{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
	switch cfg.workload {
	case "study-year":
		err = runStudyYear(cfg, res)
	case "serve-zipf", "serve-timetravel":
		err = runServe(cfg, serveSpecs[cfg.workload], res)
	default:
		err = fmt.Errorf("-workload %q: want one of %s", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return fail(err)
	}
	if cfg.tracer != nil {
		path := filepath.Join(cfg.cache, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := cfg.tracer.write(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", cfg.tracer.count(), path)
	}
	out, err := res.render(cfg.tracer != nil)
	if err != nil {
		return fail(err)
	}
	fmt.Println(out)
	if !res.correct {
		return 1
	}
	return 0
}

// render formats the result line. Every end-to-end metric must have
// been measured; a per-layer metric the workload leaves unset is a
// layer it does no work in, and reads 0.
func (r *result) render(traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.name] = value{r.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok || v <= 0 {
				return "", fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			metrics[m.name] = value{v, m.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	return string(b), err
}

// fixtureSeed is the world seed of the serve workloads' lake. The
// serve workloads take their query schedule, not their data, from
// -seed, so the one lake serves every run of a given build.
const fixtureSeed = 42

// ensureFixture returns the serve fixture: the lake a study-year
// configuration run of the code under test writes. It is made once
// per build, outside every timed window, and cached under a name
// holding the code's identity, so two builds never share one.
func ensureFixture(cfg config) (string, error) {
	dir := filepath.Join(cfg.cache, "fixture-"+cfg.codeKey)
	lakeDir := filepath.Join(dir, "lake")
	if _, err := os.Stat(filepath.Join(dir, "done")); err == nil {
		return lakeDir, nil
	}
	// A fixture of another build, or one cut short, is stale.
	old, _ := filepath.Glob(filepath.Join(cfg.cache, "fixture-*"))
	for _, o := range old {
		if err := os.RemoveAll(o); err != nil {
			return "", err
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: writing the serve fixture lake (one study-year run)")
	w := world.Generate(world.DefaultConfig(fixtureSeed))
	r, err := runStudy(w, fixtureSeed, dir, nil, 0)
	if err != nil {
		return "", fmt.Errorf("fixture: %w", err)
	}
	if _, err := r.check(world.DefaultConfig(fixtureSeed).TotalSamples, fixtureSeed); err != nil {
		return "", fmt.Errorf("fixture: %w", err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "ckpt")); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "done"), nil, 0o644); err != nil {
		return "", err
	}
	return lakeDir, nil
}

// checkDigest compares a study's dataset digest with the one an
// earlier run of the same build and seed recorded, recording it when
// this is the first.
func (cfg config) checkDigest(digest string) error {
	dir := filepath.Join(cfg.cache, "digests-"+cfg.codeKey)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d", cfg.seed))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(digest), 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != digest {
		return fmt.Errorf("dataset digest %.16s differs from %.16s, recorded by an earlier run of this build with seed %d", digest, prev, cfg.seed)
	}
	return nil
}
