package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one malnetd process serving the fixture lake.
type daemon struct {
	cmd       *exec.Cmd
	base      string // http://host:port of the /v1 API
	debugBase string // http://host:port of /metrics and /debug/vars
	stopped   bool
}

// startDaemon execs malnetd over lakeDir and returns once it answers
// /v1/headline with a 200, with the time that took: the serve
// workloads' set-up time. The daemon never reloads, logs no requests
// and keeps no slow-query ring, and dies with the benchmark.
func startDaemon(bin, lakeDir string) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-checkpoint-dir", lakeDir, "-listen", "127.0.0.1:0",
		"-reload-every", "0", "-debug-addr", "127.0.0.1:0", "-slowlog-threshold", "-1s")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting malnetd: %w", err)
	}
	d := &daemon{cmd: cmd}
	api := scanFor(stdout, "listening on ", "")
	dbg := scanFor(stderr, "debug server on ", "/debug/pprof/")
	for d.base == "" || d.debugBase == "" {
		select {
		case a, ok := <-api:
			if !ok {
				d.stop()
				return nil, 0, fmt.Errorf("malnetd exited before listening")
			}
			d.base, api = a, nil
		case a, ok := <-dbg:
			if !ok {
				d.stop()
				return nil, 0, fmt.Errorf("malnetd exited before starting its debug server")
			}
			d.debugBase, dbg = a, nil
		case <-time.After(60 * time.Second):
			d.stop()
			return nil, 0, fmt.Errorf("malnetd did not start within 60s")
		}
	}
	c := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := c.Get(d.base + "/v1/headline")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("malnetd did not answer /v1/headline within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// scanFor reads r line by line and sends the word after prefix, less
// suffix, of the first line starting with prefix, then drains the
// rest so the daemon never blocks on a full pipe. The channel closes
// without a value when r ends first.
func scanFor(r io.Reader, prefix, suffix string) chan string {
	ch := make(chan string, 1)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				word, _, _ := strings.Cut(rest, " ")
				ch <- strings.TrimSuffix(word, suffix)
				io.Copy(io.Discard, r)
				return
			}
		}
	}()
	return ch
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop kills the daemon and waits for it to exit. Stopping twice is
// harmless.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// debugClient reads the daemon's debug endpoints.
var debugClient = &http.Client{Timeout: 10 * time.Second}

// daemonVars is the part of /debug/vars the benchmark reads.
type daemonVars struct {
	Memstats struct {
		Mallocs      uint64 `json:"Mallocs"`
		NumGC        uint32 `json:"NumGC"`
		PauseTotalNs uint64 `json:"PauseTotalNs"`
	} `json:"memstats"`
}

func (d *daemon) vars() (daemonVars, error) {
	var v daemonVars
	resp, err := debugClient.Get(d.debugBase + "/debug/vars")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// promSample is one line of the daemon's /metrics exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the subset of the Prometheus text format malnetd
// emits: comment lines, and `name{k="v",...} value` lines whose label
// values hold no commas or quotes.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			body, ok := strings.CutSuffix(s.name[i+1:], "}")
			if !ok {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			s.name = s.name[:i]
			for _, kv := range strings.Split(body, ",") {
				k, q, ok := strings.Cut(kv, "=")
				val, err := strconv.Unquote(q)
				if !ok || err != nil {
					return nil, fmt.Errorf("metrics: bad label %q in %q", kv, line)
				}
				s.labels[k] = val
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// scrape is one parsed /metrics read.
type scrape []promSample

func (d *daemon) scrape() (scrape, error) {
	resp, err := debugClient.Get(d.debugBase + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(b))
}

// sum adds every sample of name whose labels include want.
func (s scrape) sum(name string, want map[string]string) float64 {
	total := 0.0
next:
	for _, p := range s {
		if p.name != name {
			continue
		}
		for k, v := range want {
			if p.labels[k] != v {
				continue next
			}
		}
		total += p.value
	}
	return total
}

// serviceQuantile estimates the q-quantile of server-side request
// duration, in ms, over every endpoint between scrapes a and b, by
// linear interpolation inside the histogram bucket that holds it.
func serviceQuantile(a, b scrape, q float64) float64 {
	const name = "malnetd_request_duration_seconds_bucket"
	les := map[float64]float64{}
	for _, s := range []struct {
		sc   scrape
		sign float64
	}{{a, -1}, {b, 1}} {
		for _, p := range s.sc {
			if p.name != name {
				continue
			}
			le, err := strconv.ParseFloat(p.labels["le"], 64)
			if err != nil {
				continue
			}
			les[le] += s.sign * p.value
		}
	}
	var bounds []float64
	for le := range les {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || les[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	want := q * les[bounds[len(bounds)-1]]
	prevLe, prevN := 0.0, 0.0
	for _, le := range bounds {
		n := les[le]
		if n >= want {
			if math.IsInf(le, 1) {
				return prevLe * 1000
			}
			if n == prevN {
				return le * 1000
			}
			return (prevLe + (le-prevLe)*(want-prevN)/(n-prevN)) * 1000
		}
		prevLe, prevN = le, n
	}
	return prevLe * 1000
}
