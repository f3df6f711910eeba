package main

import (
	"sync"
	"testing"
	"time"
)

func msDist(vals ...int) dist {
	var xs []time.Duration
	for _, v := range vals {
		xs = append(xs, time.Duration(v)*time.Millisecond)
	}
	return newDist(xs)
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - i // descending, so newDist must sort
	}
	return out
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n       int
		wantMS  int
		wantPct float64
	}{
		{1000, 990, 99},     // 10 samples above 990
		{200, 190, 95},      // 10 samples above 190
		{11, 1, 100.0 / 11}, // the smallest sample that qualifies
		{10, 10, 100},       // none qualifies: the maximum
		{1, 1, 100},
	}
	for _, c := range cases {
		got, pct := msDist(seq(c.n)...).tail()
		if got != time.Duration(c.wantMS)*time.Millisecond || pct != c.wantPct {
			t.Errorf("n=%d: tail %v at p%v, want %dms at p%v", c.n, got, pct, c.wantMS, c.wantPct)
		}
	}
	if got, pct := newDist(nil).tail(); got != 0 || pct != 0 {
		t.Errorf("empty: tail %v at p%v", got, pct)
	}
}

func TestMedian(t *testing.T) {
	if got := msDist(5, 1, 3).median(); got != 3*time.Millisecond {
		t.Errorf("odd median %v", got)
	}
	if got := msDist(4, 1, 3, 2).median(); got != 2500*time.Microsecond {
		t.Errorf("even median %v", got)
	}
	if got := medianFloat([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("float median %v", got)
	}
}

// TestPartFigures: a stall confined to one part moves neither the
// median nor the tail reported over three parts.
func TestPartFigures(t *testing.T) {
	var xs []time.Duration
	for part := 0; part < 3; part++ {
		for i := 1; i <= 20; i++ {
			v := time.Duration(i) * time.Millisecond
			if part == 1 {
				v *= 10 // the stalled part
			}
			xs = append(xs, v)
		}
	}
	f := partFigures(xs, 3)
	if f.p50 != 10.5 || f.tail != 10 || f.pct != 50 || f.samples != 60 {
		t.Errorf("figures %+v, want p50 10.5ms and tail 10ms at p50 of 60 samples", f)
	}
	if one := partFigures(xs, 1); one.p50 != ms(newDist(xs).median()) {
		t.Errorf("one part: %+v", one)
	}
}

// TestPassFigures: over passes of the same three inputs, the figures
// are the typical pass's median and slowest sample, and one stalled
// pass moves neither.
func TestPassFigures(t *testing.T) {
	var xs []time.Duration
	for pass := 0; pass < 5; pass++ {
		for _, v := range []int{30, 10, 20} {
			d := time.Duration(v+pass) * time.Millisecond
			if pass == 2 {
				d *= 10 // the stalled pass
			}
			xs = append(xs, d)
		}
	}
	f := passFigures(xs, 5)
	if f.p50 != 23 || f.tail != 33 || f.pct != 100 || f.samples != 15 {
		t.Errorf("figures %+v, want p50 23ms and slowest 33ms of 15 samples", f)
	}
}

func TestSelfTimes(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(msec int) time.Time { return base.Add(time.Duration(msec) * time.Millisecond) }
	spans := []span{
		{id: 1, name: "root", start: at(0), end: at(100)},
		{id: 2, parent: 1, name: "a", start: at(10), end: at(30)},
		{id: 3, parent: 1, name: "b", start: at(20), end: at(50)},  // overlaps a: counted once
		{id: 4, parent: 1, name: "c", start: at(90), end: at(120)}, // clipped to the root's end
		{id: 5, parent: 3, name: "a", start: at(25), end: at(35)},  // grandchild: only b loses it
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 50 * time.Millisecond, // 100 - [10,50] - [90,100]
		"a":    30 * time.Millisecond, // 20 + 10, both leaves
		"b":    20 * time.Millisecond, // 30 - 10
		"c":    30 * time.Millisecond,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var tr tracer
	root := tr.begin("root", 0)
	kid := tr.begin("kid", root)
	time.Sleep(2 * time.Millisecond)
	tr.finish(kid)
	tr.finish(root)
	self := selfTimes(tr.spans)
	if self["kid"] < 2*time.Millisecond || self["root"] >= self["kid"] {
		t.Errorf("self times %v", self)
	}
}

// TestOpenLoopDueTime: one stalled request delays the queue behind it,
// and the requests it delays are charged from their due times, while
// the generator itself stays on schedule.
func TestOpenLoopDueTime(t *testing.T) {
	res := openLoop(100, 20, 1, func(i int) error {
		if i == 0 {
			time.Sleep(100 * time.Millisecond)
		}
		return nil
	})
	if res.failures() != 0 {
		t.Fatalf("failures %d", res.failures())
	}
	// Request 1 was due at 10ms and could not start before 100ms.
	if res.lat[1] < 85*time.Millisecond || res.lat[1] > 150*time.Millisecond {
		t.Errorf("request 1 latency %v, want about 90ms from its due time", res.lat[1])
	}
	// Requests due after the stall cleared run on time.
	if res.lat[19] > 20*time.Millisecond {
		t.Errorf("request 19 latency %v, want near 0", res.lat[19])
	}
	if late, _ := newDist(res.late).tail(); late > 20*time.Millisecond {
		t.Errorf("generator ran %v late behind a stalled worker", late)
	}
	if res.backlog != 0 {
		t.Errorf("backlog %d after the stall cleared", res.backlog)
	}
}

// TestOpenLoopBacklog: a server slower than the rate leaves a backlog
// that fails the limit even before the tail is long.
func TestOpenLoopBacklog(t *testing.T) {
	res := openLoop(200, 40, 1, func(int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if res.backlog < 20 {
		t.Errorf("backlog %d, want most requests still queued", res.backlog)
	}
	if meetsLimit(res, time.Second, 1) {
		t.Error("a growing backlog met the limit")
	}
}

func TestMaxRateBisection(t *testing.T) {
	calls := 0
	got := maxRate(func(r float64) bool { calls++; return r <= 123 }, 100, 8)
	if calls != 8 || got > 123 || got < 123*0.97 {
		t.Errorf("maxRate = %v after %d probes, want just under 123", got, calls)
	}
	if got := maxRate(func(r float64) bool { return r <= 40 }, 100, 8); got > 40 || got < 40*0.9 {
		t.Errorf("shrinking search: %v, want just under 40", got)
	}
	if got := maxRate(func(float64) bool { return false }, 100, 4); got != 0 {
		t.Errorf("nothing passes: %v", got)
	}
}

// TestMaxRateFakeServer finds the capacity of a fake server that serves
// one request at a time in 5ms (200 req/s) behind two connections.
func TestMaxRateFakeServer(t *testing.T) {
	if testing.Short() {
		t.Skip("takes about 4s")
	}
	const service = 5 * time.Millisecond
	var mu sync.Mutex
	serve := func(int) error {
		mu.Lock()
		defer mu.Unlock()
		time.Sleep(service)
		return nil
	}
	got := maxRate(func(rate float64) bool {
		return meetsLimit(openLoop(rate, int(rate/2), 2, serve), 25*time.Millisecond, 2)
	}, 100, 7)
	if got < 150 || got > 210 {
		t.Errorf("max rate %v req/s, want near the 200 req/s capacity", got)
	}
}
