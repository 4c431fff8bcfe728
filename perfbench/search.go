package main

import (
	"fmt"
	"math"
)

// step is one rate tried by the max-rate search.
type step struct {
	rate     float64 // offered rate, requests per second
	achieved float64 // completed requests per second
	pass     bool    // tail latency within the limit, every request answered 200
}

// searchMaxRate finds the highest open-loop rate that passes. first is
// the already-measured step at the nominal rate. From a passing rate
// the search doubles until a rate fails, from a failing one it halves
// until one passes (at most four times); it then bisects the bracket
// geometrically refine times. The answer is the best passing step, so
// it is always below a rate that failed: a run where every rate up to
// top passes has not found saturation and is an error, as is a run
// where no rate down to first.rate/16 passes.
func searchMaxRate(first step, top float64, refine int, probe func(rate float64) step) (step, error) {
	best, fail := first, 0.0
	if first.pass {
		for r := first.rate * 2; ; r *= 2 {
			if r > top {
				return step{}, fmt.Errorf("every rate up to the top of the search range (%.0f/s) met the limit: saturation not bracketed", top)
			}
			s := probe(r)
			if !s.pass {
				fail = r
				break
			}
			best = s
		}
	} else {
		fail = first.rate
		for r := first.rate / 2; !best.pass; r /= 2 {
			if r < first.rate/16 {
				return step{}, fmt.Errorf("no rate down to %.1f/s met the limit", first.rate/16)
			}
			if best = probe(r); !best.pass {
				fail = r
			}
		}
	}
	for i := 0; i < refine; i++ {
		s := probe(math.Sqrt(best.rate * fail))
		if s.pass {
			best = s
		} else {
			fail = s.rate
		}
	}
	return best, nil
}
