package main

import (
	"fmt"
	"math/rand"
	"net/url"

	"malnet/internal/loadgen"
)

// pathSource yields the next request path of a workload's schedule.
// Every source is a pure function of the run's seed (plus, for
// C2 point lookups, the served store's address index).
type pathSource func() string

// zipfSource replays loadgen's zipf mix, resolving C2 rank
// placeholders against addrs the way cmd/malnetbench does.
func zipfSource(seed int64, addrs []string) pathSource {
	sched := loadgen.NewSchedule(seed)
	return func() string {
		q := sched.Next()
		if q.C2Rank >= 0 && len(addrs) > 0 {
			return "/v1/c2/" + addrs[q.C2Rank%len(addrs)]
		}
		return q.Path
	}
}

// timeTravelFamilies is the family vocabulary of time-travel queries.
var timeTravelFamilies = []string{"mirai", "gafgyt", "tsunami", "mozi", "hajime"}

// timeTravelSource draws requests whose asof= is uniform over the
// lake's commit days, spread evenly over the four endpoints a
// historical dashboard reads. Days are drawn without replacement, a
// fresh shuffle of all commit days at a time, so every run of a given
// length visits nearly the same days, and the seed changes their
// order rather than how old (and so how costly) they are.
func timeTravelSource(seed int64, days []int) pathSource {
	rng := rand.New(rand.NewSource(seed))
	var order, endpoints []int
	return func() string {
		if len(order) == 0 {
			order = rng.Perm(len(days))
		}
		if len(endpoints) == 0 {
			endpoints = rng.Perm(4)
		}
		day := days[order[0]]
		ep := endpoints[0]
		order, endpoints = order[1:], endpoints[1:]
		switch ep {
		case 0:
			return fmt.Sprintf("/v1/headline?asof=%d", day)
		case 1:
			return fmt.Sprintf("/v1/samples?limit=100&asof=%d", day)
		case 2:
			return fmt.Sprintf("/v1/attacks?limit=100&asof=%d", day)
		default:
			fam := timeTravelFamilies[rng.Intn(len(timeTravelFamilies))]
			expr := fmt.Sprintf("family==%q | count() by c2", fam)
			if rng.Intn(2) == 0 {
				expr = fmt.Sprintf("day in %d..%d | sum(detections) by family", day/2, day)
			}
			return fmt.Sprintf("/v1/query?q=%s&asof=%d", url.QueryEscape(expr), day)
		}
	}
}

// queryExpr returns the colstore expression of a /v1/query path, or
// "" for any other endpoint.
func queryExpr(path string) string {
	u, err := url.Parse(path)
	if err != nil || u.Path != "/v1/query" {
		return ""
	}
	return u.Query().Get("q")
}
