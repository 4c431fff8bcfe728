package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// generator is the load generator: a fixed set of connections to the
// daemon. Its open-loop phases send requests due at a fixed rate
// whatever the daemon does, and measure each latency from its due
// time, so a stall is charged to every request it delays; requests
// wait in an unbounded queue while every connection is busy.
type generator struct {
	target string
	// clients holds one single-connection client per connection.
	clients []*http.Client
	// abandonAfter drops a request still unsent this long after its
	// due time; it counts as missing the latency limit.
	abandonAfter time.Duration
	tr           *tracer
}

func newGenerator(target string, conns int, abandonAfter time.Duration, tr *tracer) *generator {
	l := &generator{target: target, abandonAfter: abandonAfter, tr: tr}
	for i := 0; i < conns; i++ {
		l.clients = append(l.clients, &http.Client{
			Timeout: abandonAfter + 5*time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return l
}

func (l *generator) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// phase is the outcome of one open-loop phase.
type phase struct {
	rate     float64
	sent     int       // requests due in the phase
	ok       int       // 200 responses
	bad      int       // non-200 responses
	errs     int       // transport errors
	dropped  int       // abandoned before sending
	latMs    []float64 // per completed request, from due time, in due order
	lateMs   []float64 // dispatcher lateness per request
	lastDone time.Time
	first    time.Time
	spots    []spot
}

// spot is one response kept for the byte-for-byte check.
type spot struct {
	path string
	body []byte
}

type job struct {
	i    int
	path string
	due  time.Time
	keep bool
}

type outcome struct {
	status int
	err    bool
	drop   bool
	lat    time.Duration
	done   time.Time
	path   string // set with body, for kept responses
	body   []byte
}

// run sends rate·d requests from next, keeping every spotEvery-th
// response body (0 keeps none), and waits for every one to finish.
func (l *generator) run(rate float64, d time.Duration, next pathSource, spotEvery int, parent int) phase {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	jobs := make(chan job, n)
	outs := make([]outcome, n)
	p := phase{rate: rate, sent: n, lateMs: make([]float64, n)}

	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for j := range jobs {
				outs[j.i] = l.do(c, j, parent)
			}
		}(c)
	}
	start := time.Now().Add(time.Millisecond)
	p.first = start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		p.lateMs[i] = float64(time.Since(due)) / float64(time.Millisecond)
		jobs <- job{i: i, path: next(), due: due, keep: spotEvery > 0 && i%spotEvery == spotEvery/2}
	}
	close(jobs)
	wg.Wait()

	p.latMs = make([]float64, 0, n)
	for _, o := range outs {
		switch {
		case o.drop:
			p.dropped++
			continue
		case o.err:
			p.errs++
		case o.status != http.StatusOK:
			p.bad++
		default:
			p.ok++
		}
		p.latMs = append(p.latMs, float64(o.lat)/float64(time.Millisecond))
		if o.done.After(p.lastDone) {
			p.lastDone = o.done
		}
		if o.body != nil {
			p.spots = append(p.spots, spot{path: o.path, body: o.body})
		}
	}
	return p
}

func (l *generator) do(c *http.Client, j job, parent int) outcome {
	if time.Since(j.due) > l.abandonAfter {
		return outcome{drop: true}
	}
	sent := time.Now()
	resp, err := c.Get(l.target + j.path)
	if err != nil {
		return outcome{err: true, lat: time.Since(j.due), done: time.Now()}
	}
	var buf bytes.Buffer
	var body io.Writer = io.Discard
	if j.keep {
		body = &buf
	}
	_, cerr := io.Copy(body, resp.Body)
	resp.Body.Close()
	done := time.Now()
	l.tr.record("loadgen.request", parent, sent, done)
	o := outcome{status: resp.StatusCode, err: cerr != nil, lat: done.Sub(j.due), done: done}
	if j.keep && cerr == nil {
		o.path, o.body = j.path, buf.Bytes()
	}
	return o
}

// failed counts requests that did not get a 200 in time.
func (p phase) failed() int { return p.bad + p.errs + p.dropped }

// achieved is completed requests per second, from the first due
// time to the last completion.
func (p phase) achieved() float64 {
	if p.ok == 0 || !p.lastDone.After(p.first) {
		return 0
	}
	return float64(p.ok) / p.lastDone.Sub(p.first).Seconds()
}

// tail is the phase's q-quantile latency in ms, as the median over
// windows of the phase (see windowedPercentile).
func (p phase) tail(q float64) float64 { return windowedPercentile(p.latMs, q) }

// meets reports whether the phase held its tail latency within limit
// with every request answered 200. Taking the tail over windows
// means a passing phase held the limit for most of its length, which
// a phase with a growing backlog does not.
func (p phase) meets(limitMs float64) bool {
	return p.failed() == 0 && p.tail(tailQ) <= limitMs
}

func (p phase) String() string {
	return fmt.Sprintf("rate %.0f/s: ok %d bad %d err %d dropped %d p50 %.2fms tail %.2fms",
		p.rate, p.ok, p.bad, p.errs, p.dropped, p.tail(0.5), p.tail(tailQ))
}

// closed sends requests back to back on every connection for d, each
// sent as soon as the connection's previous answer arrived, and
// returns the requests sent, those not answered 200, and the 200s per
// second.
// With the connections always busy this is the most the daemon,
// sharing the machine with the generator, completes.
func (l *generator) closed(d time.Duration, next pathSource) (sent, failed int, rate float64) {
	var mu sync.Mutex
	var ok, bad int
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				path := next()
				mu.Unlock()
				o := l.do(c, job{path: path, due: time.Now()}, 0)
				mu.Lock()
				if o.err || o.status != http.StatusOK {
					bad++
				} else {
					ok++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ok + bad, bad, float64(ok) / time.Since(start).Seconds()
}
