package main

import (
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile: the tail of n samples is the highest percentile that
// still has tailSamples samples above it.
const tailSamples = 10

// dist is a sorted sample of durations.
type dist []time.Duration

func newDist(xs []time.Duration) dist {
	d := append(dist(nil), xs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for an empty sample.
func (d dist) median() time.Duration {
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// tail returns the highest percentile with at least tailSamples samples
// beyond it, together with that percentile (0–100). With fewer than
// tailSamples+1 samples no percentile qualifies and the maximum is
// returned as percentile 100.
func (d dist) tail() (time.Duration, float64) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	if n <= tailSamples {
		return d[n-1], 100
	}
	i := n - tailSamples - 1
	return d[i], 100 * float64(i+1) / float64(n)
}

// mean is the arithmetic mean; 0 for an empty sample.
func (d dist) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s / time.Duration(len(d))
}

func (d dist) sum() time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

// figures are a latency sample's median and tail, in ms, with the
// tail's percentile.
type figures struct {
	p50, tail, pct float64
	samples        int
}

// partFigures splits a sample, in the order it was taken, into equal
// back-to-back parts and returns the medians of the parts' medians and
// tails (pct is that of the first part). A short stall of the host then
// moves one part and not the figure.
func partFigures(xs []time.Duration, parts int) figures {
	parts = max(1, min(parts, len(xs)))
	var p50s, tails []float64
	f := figures{samples: len(xs)}
	for i := 0; i < parts; i++ {
		d := newDist(xs[i*len(xs)/parts : (i+1)*len(xs)/parts])
		tail, pct := d.tail()
		p50s, tails = append(p50s, ms(d.median())), append(tails, ms(tail))
		if i == 0 {
			f.pct = pct
		}
	}
	f.p50, f.tail = medianFloat(p50s), medianFloat(tails)
	return f
}

// passFigures splits a sample, in the order it was taken, into equal
// back-to-back passes over the same inputs and returns the medians over
// the passes of each pass's median and of its slowest sample (pct 100).
// A pass is too small for a percentile tail, and a stall of the host
// moves one pass and not the figure.
func passFigures(xs []time.Duration, passes int) figures {
	passes = max(1, min(passes, len(xs)))
	var p50s, slowest []float64
	for i := 0; i < passes; i++ {
		d := newDist(xs[i*len(xs)/passes : (i+1)*len(xs)/passes])
		p50s, slowest = append(p50s, ms(d.median())), append(slowest, ms(d[len(d)-1]))
	}
	return figures{p50: medianFloat(p50s), tail: medianFloat(slowest), pct: 100, samples: len(xs)}
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// span is one traced call made by the benchmark around a layer call.
type span struct {
	id, parent int // parent 0 = root
	name       string
	start, end time.Time
}

// tracer records spans from one goroutine. Ids start at 1.
type tracer struct {
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: time.Now()})
	return len(t.spans)
}

func (t *tracer) finish(id int) { t.spans[id-1].end = time.Now() }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its children.
// Overlapping children (parallel work) are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.name] += s.end.Sub(s.start) - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x[0].After(cur[1]):
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = x
		}
	}
	return total + cur[1].Sub(cur[0])
}
