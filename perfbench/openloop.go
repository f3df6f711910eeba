package main

import (
	"sync"
	"time"
)

// loadResult is one open-loop phase: n requests due at fixed spacing
// 1/rate, served by a fixed pool of client connections.
type loadResult struct {
	rate    float64
	lat     []time.Duration // per request: completion minus due time
	failed  []bool          // per request: error or wrong status
	late    []time.Duration // per request: generator send time minus due time
	backlog int             // requests due but not yet started when the last one fell due
}

func (r loadResult) failures() int {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return n
}

// okLatencies are the latencies of the requests that succeeded, in
// request order.
func (r loadResult) okLatencies() []time.Duration {
	var xs []time.Duration
	for i, l := range r.lat {
		if !r.failed[i] {
			xs = append(xs, l)
		}
	}
	return xs
}

// openLoop sends n requests due at start + i/rate from one generator
// goroutine, whatever the state of earlier requests, to conns workers
// that each call do(i). Latency runs from the due time, so a stall also
// charges the wait it imposes on the requests queued behind it.
func openLoop(rate float64, n, conns int, do func(i int) error) loadResult {
	type job struct {
		i   int
		due time.Time
	}
	res := loadResult{
		rate:   rate,
		lat:    make([]time.Duration, n),
		failed: make([]bool, n),
		late:   make([]time.Duration, n),
	}
	// Buffered to n, one slot per send: the generator never blocks on
	// busy workers, so queueing shows up as latency, not as a late
	// generator.
	jobs := make(chan job, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := do(j.i)
				res.lat[j.i] = time.Since(j.due)
				res.failed[j.i] = err != nil
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = time.Since(due)
		jobs <- job{i, due}
	}
	res.backlog = len(jobs)
	close(jobs)
	wg.Wait()
	return res
}

// meetsLimit reports whether a phase kept its tail latency within limit
// with no failures and no growing backlog (no more requests waiting when
// the last fell due than there are connections to serve them).
func meetsLimit(r loadResult, limit time.Duration, conns int) bool {
	if r.failures() > 0 || r.backlog > conns {
		return false
	}
	t, _ := newDist(r.okLatencies()).tail()
	return t <= limit
}

// maxRate searches for the highest rate that passes, in a fixed number
// of probes: it grows the start rate by half while probes pass, shrinks
// it while they fail, then bisects the bracket. It returns the highest
// passing rate seen (0 if none passed).
func maxRate(pass func(rate float64) bool, start float64, probes int) float64 {
	var lo, hi float64 // highest passing and lowest failing rate so far
	for r := start; probes > 0; probes-- {
		if pass(r) {
			lo = r
		} else {
			hi = r
		}
		switch {
		case hi == 0:
			r = lo * 1.5
		case lo == 0:
			r = hi / 1.5
		default:
			r = (lo + hi) / 2
		}
	}
	return lo
}
