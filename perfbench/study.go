package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"malnet/internal/binfmt"
	"malnet/internal/c2"
	"malnet/internal/checkpoint"
	"malnet/internal/core"
	"malnet/internal/lake"
	"malnet/internal/obs"
	"malnet/internal/sandbox"
	"malnet/internal/simclock"
	"malnet/internal/world"
	"malnet/internal/yara"
)

// studyWorkers is the study-year worker count.
const studyWorkers = 2

// studyRun is one measured year-long study.
type studyRun struct {
	st       *core.Study
	dir      string
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	stages   map[string]time.Duration // obs.Wall stage totals
	commits  []time.Time              // when each lake commit returned
	start    time.Time
	lastCkpt string
}

// runStudy runs the study-year configuration on w: the paper's
// defaults (probing on, 84 rounds), two workers, a checkpoint after
// every non-empty day batch, each committed into a fresh lake in dir
// as cmd/malnet -checkpoint-dir -lake-dir does.
func runStudy(w *world.World, seed int64, dir string, tr *tracer, parent int) (*studyRun, error) {
	lk, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		return nil, err
	}
	r := &studyRun{dir: dir}
	studyID := 0
	runName := fmt.Sprintf("seed-%d", seed)
	scfg := core.Defaults(seed)
	scfg.Determinism.Workers = studyWorkers
	scfg.Durability = core.CheckpointConfig{
		Dir:   filepath.Join(dir, "ckpt"),
		Every: 1,
		OnCheckpoint: func(day int, path string) error {
			t0 := time.Now()
			_, err := lk.CommitFile("main", runName, seed, day, path)
			t1 := time.Now()
			tr.record("lake.commit", studyID, t0, t1)
			r.commits = append(r.commits, t1)
			r.lastCkpt = path
			return err
		},
	}
	observer := obs.NewObserver()
	scfg.Observability.Obs = observer

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	studyID = tr.start("core.study", parent)
	r.start = time.Now()
	st, err := core.RunStudyContext(context.Background(), w, scfg)
	r.wall = time.Since(r.start)
	tr.end(studyID)
	r.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	r.st = st
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	r.stages = map[string]time.Duration{}
	if stages, ok := observer.Wall.Snapshot()["stages"].(map[string]any); ok {
		for name, v := range stages {
			if m, ok := v.(map[string]int64); ok {
				r.stages[name] = time.Duration(m["total_ns"])
			}
		}
	}
	return r, nil
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check verifies the study's outputs: every sample accepted, a valid
// lake journal holding one commit per checkpoint in day order, and a
// head that is the last checkpoint written. It returns the digest of
// the five datasets.
func (r *studyRun) check(wantSamples int, seed int64) (string, error) {
	if got := len(r.st.Samples); got != wantSamples {
		return "", fmt.Errorf("%d samples accepted, want %d", got, wantSamples)
	}
	lk, err := lake.Open(filepath.Join(r.dir, "lake"))
	if err != nil {
		return "", fmt.Errorf("reopening lake: %w", err)
	}
	log, err := lk.Log("main")
	if err != nil {
		return "", fmt.Errorf("lake log: %w", err)
	}
	if len(log) != len(r.commits) || len(log) == 0 {
		return "", fmt.Errorf("lake journal holds %d commits, the study made %d", len(log), len(r.commits))
	}
	for i := 1; i < len(log); i++ {
		if log[i].Day >= log[i-1].Day {
			return "", fmt.Errorf("lake journal out of day order at commit %d", log[i].ID)
		}
	}
	for _, c := range log {
		if _, err := os.Stat(lk.ObjectPath(c.Snapshot)); err != nil {
			return "", fmt.Errorf("lake commit %d: %w", c.ID, err)
		}
	}
	last, err := checkpoint.ReadFile(r.lastCkpt)
	if err != nil {
		return "", fmt.Errorf("last checkpoint: %w", err)
	}
	head, err := lk.ResolveSelector(fmt.Sprintf("seed-%d", seed), -1)
	if err != nil {
		return "", fmt.Errorf("resolving the run's head: %w", err)
	}
	if head.ID != log[0].ID || head.Snapshot != last.SumHex() {
		return "", fmt.Errorf("lake head %s is not the last checkpoint %s", head.Snapshot, last.SumHex())
	}
	return datasetDigest(r.st)
}

// datasetDigest hashes the five datasets (D-Samples, D-C2s,
// D-Exploits, D-DDOS, D-PC2).
func datasetDigest(st *core.Study) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{st.Samples, st.C2s, st.Exploits, st.DDoS, st.MergedLiveC2s()} {
		if err := enc.Encode(v); err != nil {
			return "", fmt.Errorf("dataset digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runStudyYear measures whole studies until the run's seconds have
// passed, at least one, and reports the median of each figure. A
// traced run measures one study and then its layers.
func runStudyYear(cfg config, res *result) error {
	tr := cfg.tracer
	root := tr.start("study-year.run", 0)
	defer tr.end(root)
	wcfg := world.DefaultConfig(cfg.seed)
	var setups []float64
	var w *world.World
	for i := 0; i < setupRuns; i++ {
		w = nil
		runtime.GC()
		id := tr.start("world.generate", root)
		t0 := time.Now()
		w = world.Generate(wcfg)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(id)
	}
	res.e2e["setup_s"] = median(setups)

	per := map[string][]float64{}
	var runs []*studyRun
	begin := time.Now()
	for len(runs) == 0 || time.Since(begin) < time.Duration(cfg.seconds)*time.Second {
		if len(runs) > 0 {
			w = world.Generate(wcfg)
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("study-%d", len(runs)))
		r, err := runStudy(w, cfg.seed, dir, tr, root)
		w = nil
		if err != nil {
			return err
		}
		ops := len(r.commits)
		res.attempted += ops
		digest, err := r.check(wcfg.TotalSamples, cfg.seed)
		if err != nil {
			res.correct = false
			fmt.Fprintln(os.Stderr, "perfbench: study output check:", err)
		} else if err := cfg.checkDigest(digest); err != nil {
			res.correct = false
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return err
		}
		gaps := make([]float64, ops)
		prev := r.start
		for i, t := range r.commits {
			gaps[i] = float64(t.Sub(prev)) / float64(time.Millisecond)
			prev = t
		}
		fmt.Fprintf(os.Stderr, "perfbench: study %d: %d commits in %v, cpu %v, %d mallocs, digest %.16s\n",
			len(runs), ops, r.wall, r.cpu, r.mallocs, digest)
		per["ops_per_s"] = append(per["ops_per_s"], float64(ops)/r.wall.Seconds())
		per["p50_ms"] = append(per["p50_ms"], percentile(gaps, 0.5))
		per["p95_ms"] = append(per["p95_ms"], percentile(gaps, tailQ))
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], float64(r.cpu)/float64(time.Millisecond)/float64(ops))
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(r.mallocs)/float64(ops))
		per["peak_rss_mb"] = append(per["peak_rss_mb"], rss)
		runs = append(runs, r)
		if tr != nil {
			if err := studyLayers(cfg, r, res); err != nil {
				return err
			}
			break
		}
		r.st = nil
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	for k, v := range per {
		res.e2e[k] = median(v)
	}
	return nil
}

// studyLayers derives the write path's per-layer figures from the
// traced study and then times each layer's public functions one call
// at a time on a freshly generated world.
func studyLayers(cfg config, r *studyRun, res *result) error {
	tr, l := cfg.tracer, res.layer
	sec := func(stage string) float64 { return r.stages[stage].Seconds() }
	l["world.generate_s"] = median(tr.durations("world.generate", time.Second))
	l["core.encode_s"] = sec("batch.encode")
	l["core.static_isolated_s"] = sec("batch.static_isolated")
	l["core.merge_live_s"] = sec("batch.merge_live")
	l["core.worker_busy_s"] = sec("worker.busy")
	parallel := sec("batch.encode") + sec("batch.static_isolated")
	if parallel > 0 {
		l["core.parallel_eff"] = sec("worker.busy") / (studyWorkers * parallel)
	}
	l["core.serial_frac"] = 1 - parallel/r.wall.Seconds()
	commits := tr.durations("lake.commit", time.Millisecond)
	l["lake.commits"] = float64(len(commits))
	l["lake.commit_ms_p50"] = median(commits)
	l["lake.commit_ms_p99"] = percentile(commits, 0.99)
	l["lake.mb"] = dirMiB(filepath.Join(r.dir, "lake"))
	l["runtime.gc_cycles"] = float64(r.gcCycles)
	l["runtime.gc_pause_ms"] = float64(r.gcPause) / float64(time.Millisecond)
	// Only the commit spans fall inside the timed study.
	l["trace.overhead_pct"] = 100 * float64(len(commits)) * float64(spanCost()) / float64(r.wall)

	root := tr.start("layers", 0)
	defer tr.end(root)

	// Checkpoint: encode and durably write the final snapshot.
	f, err := checkpoint.ReadFile(r.lastCkpt)
	if err != nil {
		return err
	}
	tmp := filepath.Join(r.dir, "layer.ckpt")
	for i := 0; i < 5; i++ {
		id := tr.start("checkpoint.encode", root)
		b := checkpoint.Encode(f)
		tr.end(id)
		l["checkpoint.object_mb"] = float64(len(b)) / (1 << 20)
		id = tr.start("checkpoint.write", root)
		err := checkpoint.WriteFile(tmp, f)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	l["checkpoint.encode_ms"] = median(tr.durations("checkpoint.encode", time.Millisecond))
	l["checkpoint.write_ms"] = median(tr.durations("checkpoint.write", time.Millisecond))

	// Feed binaries: encode, parse, YARA and an isolated sandbox run
	// per MIPS sample, over the first layerSamples of the feed.
	const layerSamples = 300
	w := world.Generate(world.DefaultConfig(cfg.seed))
	rules := yara.IoTFamilies()
	n := 0
	for _, s := range w.Samples {
		if s.ForeignArch != binfmt.ArchMIPS32BE {
			continue
		}
		if n++; n > layerSamples {
			break
		}
		bc := binfmt.BotConfig{
			Family: s.Family, Variant: s.Variant, C2Addrs: s.C2Refs, P2P: s.P2P,
			ScanPorts: s.ScanPorts, ExploitIDs: s.ExploitIDs, LoaderName: s.LoaderName,
			DownloaderAddr: s.DownloaderAddr, Evasion: s.Evasion,
		}
		id := tr.start("binfmt.encode", root)
		raw, err := binfmt.Encode(bc, rand.New(rand.NewSource(s.Seed)), nil)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("binfmt.parse", root)
		_, err = binfmt.Parse(raw)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("yara.match", root)
		rules.Match(raw)
		tr.end(id)
		sb := sandbox.NewShard(simclock.New(s.Date), cfg.seed, w.Resolve, obs.NewRecorder())
		id = tr.start("sandbox.run", root)
		_, err = sb.Run(raw, sandbox.RunOptions{
			Mode:                sandbox.ModeIsolated,
			Duration:            15 * time.Minute,
			HandshakerThreshold: 20,
		})
		tr.end(id)
		if err != nil {
			return err
		}
	}
	l["binfmt.encode_us_p50"] = median(tr.durations("binfmt.encode", time.Microsecond))
	l["binfmt.parse_us_p50"] = median(tr.durations("binfmt.parse", time.Microsecond))
	l["yara.match_us_p50"] = median(tr.durations("yara.match", time.Microsecond))
	runs := tr.durations("sandbox.run", time.Millisecond)
	l["sandbox.run_ms_p50"] = median(runs)
	l["sandbox.run_ms_p99"] = percentile(runs, 0.99)

	// Probe campaign: the study's Mirai and Gafgyt sweeps (84 rounds
	// at 4h) on the fresh world, from the probe window's start.
	w.Clock.RunUntil(w.ProbeStart)
	probe := func(family, src string) core.ProbeConfig {
		return core.ProbeConfig{Subnets: w.ProbeSubnets, Interval: 4 * time.Hour, Rounds: 84,
			Family: family, SourceIP: netip.MustParseAddr(src)}
	}
	id := tr.start("core.probe_campaign", root)
	core.ScheduleProbing(w.Net, probe(c2.FamilyMirai, "10.98.0.2"))
	w.Clock.RunUntil(w.ProbeStart.Add(time.Hour))
	core.ScheduleProbing(w.Net, probe(c2.FamilyGafgyt, "10.98.0.3"))
	w.Clock.RunUntil(w.ProbeStart.Add(15 * 24 * time.Hour))
	tr.end(id)
	l["core.probe_campaign_s"] = median(tr.durations("core.probe_campaign", time.Second))
	return nil
}

// dirMiB is the total size of the regular files under dir.
func dirMiB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
