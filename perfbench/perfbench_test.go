package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 7 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one = %v, want 4", got)
	}
}

func TestWindowedPercentileIgnoresOneStall(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i%100) / 10 // 0.0 .. 9.9 in every window
	}
	for i := 0; i < 150; i++ {
		xs[i] = 500 // a stall at the start of the run
	}
	if got := percentile(xs, 0.95); got != 500 {
		t.Fatalf("whole-run p95 = %v, want the stall (500)", got)
	}
	if got := windowedPercentile(xs, 0.95); got != 9.4 {
		t.Errorf("windowed p95 = %v, want 9.4", got)
	}
	// Too few samples for two windows: the plain percentile.
	if got, want := windowedPercentile(xs[:300], 0.95), percentile(xs[:300], 0.95); got != want {
		t.Errorf("windowed p95 of 300 = %v, want %v", got, want)
	}
}

// saturating is a probe that passes up to capacity.
func saturating(capacity float64, calls *[]float64) func(float64) step {
	return func(r float64) step {
		*calls = append(*calls, r)
		return step{rate: r, achieved: r, pass: r <= capacity}
	}
}

func TestSearchMaxRateBracketsSaturation(t *testing.T) {
	for _, capacity := range []float64{2100, 5000, 11800, 40000} {
		var calls []float64
		best, err := searchMaxRate(step{rate: 2000, pass: true}, 128000, 4, saturating(capacity, &calls))
		if err != nil {
			t.Fatalf("capacity %v: %v", capacity, err)
		}
		if best.rate > capacity || !best.pass {
			t.Errorf("capacity %v: reported %v, above capacity", capacity, best.rate)
		}
		// Some probed rate failed, and it is within one refinement of
		// the answer.
		fail := math.Inf(1)
		for _, r := range calls {
			if r > capacity && r < fail {
				fail = r
			}
		}
		if math.IsInf(fail, 1) {
			t.Errorf("capacity %v: no failing rate probed, saturation not bracketed", capacity)
		}
		if ratio := fail / best.rate; ratio > math.Pow(2, 1.0/16)+1e-9 {
			t.Errorf("capacity %v: bracket %v..%v wider than 4 bisections of a doubling", capacity, best.rate, fail)
		}
		// Terminates: the ramp to 128000 takes at most 6 doublings.
		if len(calls) > 6+4 {
			t.Errorf("capacity %v: %d probes", capacity, len(calls))
		}
	}
}

func TestSearchMaxRateFailsWithoutViolation(t *testing.T) {
	var calls []float64
	_, err := searchMaxRate(step{rate: 2000, pass: true}, 128000, 4, saturating(math.Inf(1), &calls))
	if err == nil || !strings.Contains(err.Error(), "not bracketed") {
		t.Fatalf("err = %v, want the top of the range refused", err)
	}
	for _, r := range calls {
		if r > 128000 {
			t.Errorf("probed %v, above the top of the range", r)
		}
	}
}

func TestSearchMaxRateSearchesDown(t *testing.T) {
	var calls []float64
	best, err := searchMaxRate(step{rate: 40, pass: false}, 2560, 4, saturating(12, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if best.rate > 12 || best.rate < 12/math.Pow(2, 1.0/16) {
		t.Errorf("reported %v for capacity 12", best.rate)
	}
	if _, err := searchMaxRate(step{rate: 40, pass: false}, 2560, 4, saturating(1, &calls)); err == nil {
		t.Errorf("no error when no rate down to 40/16 passes")
	}
}

func TestParseStatCPU(t *testing.T) {
	stat := "4242 (mal net) d) S 1 4242 4242 0 -1 4194560 1020 0 0 0 153 47 0 0 20 0 9 0 12345 1 2 3\n"
	got, err := parseStatCPU(stat)
	if err != nil || got != 200 {
		t.Fatalf("parseStatCPU = %d, %v; want 200 ticks", got, err)
	}
	for _, bad := range []string{"", "12 (x) S 1 2", "12 (x) S 1 2 3 4 5 6 7 8 9 u s 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) gave no error", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tmalnetd\nVmPeak:\t 1200 kB\nVmHWM:\t   56992 kB\nVmRSS:\t 40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 56992 {
		t.Fatalf("parseVmHWM = %d, %v; want 56992", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) gave no error", bad)
		}
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if rss, err := peakRSSMiB(os.Getpid()); err != nil || rss <= 0 {
		t.Fatalf("peakRSSMiB = %v, %v", rss, err)
	}
}

func TestTimeTravelScheduleIsSeeded(t *testing.T) {
	days := []int{3, 9, 40, 41, 200, 356}
	draw := func(seed int64) []string {
		next := timeTravelSource(seed, days)
		out := make([]string, 200)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different time-travel schedules")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	endpoints := map[string]bool{}
	for _, p := range a {
		path, query, _ := strings.Cut(p, "?")
		endpoints[path] = true
		if !strings.Contains(query, "asof=") {
			t.Fatalf("%s carries no asof= selector", p)
		}
		if path == "/v1/query" && queryExpr(p) == "" {
			t.Fatalf("%s: no expression", p)
		}
	}
	if len(endpoints) != 4 {
		t.Errorf("schedule used endpoints %v, want 4", endpoints)
	}
}

func TestServiceQuantile(t *testing.T) {
	const before = `# HELP x
malnetd_request_duration_seconds_bucket{endpoint="a",le="0.001"} 0
malnetd_request_duration_seconds_bucket{endpoint="a",le="0.01"} 0
malnetd_request_duration_seconds_bucket{endpoint="a",le="+Inf"} 0
malnetd_cache_outcomes_total{endpoint="a",outcome="hit"} 5
`
	const after = `malnetd_request_duration_seconds_bucket{endpoint="a",le="0.001"} 50
malnetd_request_duration_seconds_bucket{endpoint="a",le="0.01"} 100
malnetd_request_duration_seconds_bucket{endpoint="a",le="+Inf"} 100
malnetd_request_duration_seconds_bucket{endpoint="b",le="0.001"} 100
malnetd_request_duration_seconds_bucket{endpoint="b",le="0.01"} 100
malnetd_request_duration_seconds_bucket{endpoint="b",le="+Inf"} 100
malnetd_cache_outcomes_total{endpoint="a",outcome="hit"} 15
malnetd_cache_outcomes_total{endpoint="b",outcome="miss"} 4
`
	a, err := parseProm(before)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProm(after)
	if err != nil {
		t.Fatal(err)
	}
	// 150 of 200 requests took at most 1ms, the other 50 up to 10ms.
	if got := serviceQuantile(scrape(a), scrape(b), 0.5); math.Abs(got-0.6667) > 1e-3 {
		t.Errorf("p50 = %vms, want 0.667ms", got)
	}
	if got := serviceQuantile(scrape(a), scrape(b), 0.875); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("p87.5 = %vms, want 5.5ms", got)
	}
	hit := map[string]string{"outcome": "hit"}
	if got := scrape(b).sum("malnetd_cache_outcomes_total", hit) - scrape(a).sum("malnetd_cache_outcomes_total", hit); got != 10 {
		t.Errorf("hit delta = %v, want 10", got)
	}
	if _, err := parseProm("x{endpoint=\"a\" 1\n"); err == nil {
		t.Error("unterminated labels parsed")
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, m := range want {
			units[m.name] = m.unit
		}
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) is not reported with that unit", kind, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
}
