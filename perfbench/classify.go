package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/census"
	"repro/internal/obs"
)

// sampleEvery re-derives about one entry in this many from the
// adversary predicates.
const sampleEvery = 3000

// classifyWorkers is the census worker count of classify sweeps. One
// worker leaves the second core to the ordered emitter and the garbage
// collector; two workers on a two-core share measure the host's
// scheduler as much as the classifier (twice the run-to-run spread).
const classifyWorkers = 1

// timedSink wraps the JSONL sink, timing every Emit and forwarding every
// optional sink interface, so checkpoints, resume and the sink kind see
// exactly the wrapped sink.
type timedSink struct {
	s     *census.JSONLSink
	emits int64
	spent time.Duration
}

func (t *timedSink) Emit(e *census.Entry) error {
	t0 := time.Now()
	err := t.s.Emit(e)
	t.spent += time.Since(t0)
	t.emits++
	return err
}

func (t *timedSink) Flush() error                           { return t.s.Flush() }
func (t *timedSink) Offset() int64                          { return t.s.Offset() }
func (t *timedSink) ResumeAt(entries uint64, b int64) error { return t.s.ResumeAt(entries, b) }
func (t *timedSink) SinkKind() string                       { return t.s.SinkKind() }

// sweepResult is one checkpointed, JSONL-sinked orbit sweep.
type sweepResult struct {
	rep     *census.Report
	elapsed time.Duration
	path    string
	next    uint64 // raw-index frontier reached
	tr      *obs.Tracer
}

// classifySweep runs `factool census -n N -orbits -out F -checkpoint C`
// through census.Stream, for a wall-clock budget (0 = the whole domain).
func classifySweep(r *run, n int, budget time.Duration, every uint64, sink census.Sink, path string) (*sweepResult, error) {
	tr := obs.NewTracer(1 << 13)
	t0 := time.Now()
	rep, err := census.Stream(n, census.Options{
		Workers: classifyWorkers, Orbits: true, Checkpoint: path + ".ckpt", CheckpointEvery: every, Budget: budget, Tracer: tr,
	}, sink)
	if err != nil {
		return nil, err
	}
	res := &sweepResult{rep: rep, elapsed: time.Since(t0), path: path, next: rep.NextIndex, tr: tr}
	if !rep.Incomplete {
		res.next = adversary.CensusSize(n)
	}
	return res, nil
}

func newJSONL(r *run, name string) (*census.JSONLSink, string, error) {
	path := filepath.Join(r.dir, name)
	s, err := census.NewJSONLSink(path)
	return s, path, err
}

// checkClassify checks a sweep's stream: indices strictly increasing and
// exactly the canonical representatives below the frontier, by an
// independent ForEachCanonicalFrom walk; a seeded sample re-derived from
// the adversary predicates. It counts every emitted entry as attempted.
func checkClassify(r *run, n int, o *adversary.Orbits, sw *sweepResult) error {
	f, err := os.Open(sw.path)
	if err != nil {
		return err
	}
	defer f.Close()
	// The independent walk runs alongside the scan, so the check holds
	// no copy of the stream's indices.
	walk := make(chan uint64, 1<<12) // decouples the walk from the file scan
	stop := make(chan struct{})
	go func() {
		defer close(walk)
		o.ForEachCanonicalFrom(0, func(idx, _ uint64) bool {
			if idx >= sw.next {
				return false
			}
			select {
			case walk <- idx:
				return true
			case <-stop:
				return false
			}
		})
	}()
	defer func() {
		close(stop)
		for range walk {
		}
	}()
	var sample [][]byte
	entries, same := 0, true
	var prev uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	salt := uint64(r.seed)*0x9e3779b97f4a7c15 + 1
	for sc.Scan() {
		line := sc.Bytes()
		idx, err := leadingIndex(line)
		if err != nil {
			return err
		}
		want, ok := <-walk
		same = same && ok && want == idx && (entries == 0 || idx > prev)
		entries, prev = entries+1, idx
		if mix64(idx^salt)%sampleEvery == 0 {
			sample = append(sample, append([]byte(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	walked := entries
	for range walk {
		walked++
	}
	r.attempt(entries)
	r.check(same && walked == entries, "n=%d stream: %d entries, the independent canonical walk below %d gives %d (or a different sequence)",
		n, entries, sw.next, walked)
	r.check(uint64(entries) == sw.rep.Summary.Orbits, "n=%d stream: %d entries, summary counts %d orbits", n, entries, sw.rep.Summary.Orbits)
	for _, line := range sample {
		var e census.Entry
		if err := json.Unmarshal(line, &e); err != nil {
			r.check(false, "n=%d entry: %v", n, err)
			continue
		}
		r.check(entryMatches(n, o, &e), "n=%d entry %d differs from its re-derivation", n, e.Index)
	}
	r.report(fmt.Sprintf("n%d_checked_sample", n), len(sample))
	return nil
}

// entryMatches re-derives a classify entry from the adversary predicates.
func entryMatches(n int, o *adversary.Orbits, e *census.Entry) bool {
	a := adversary.AdversaryAt(n, e.Index)
	live := a.LiveSets()
	if len(live) != len(e.LiveSetMasks) {
		return false
	}
	for i, s := range live {
		if uint32(s) != e.LiveSetMasks[i] {
			return false
		}
	}
	return e.Adversary == a.String() && e.SupersetClosed == a.IsSupersetClosed() && e.Symmetric == a.IsSymmetric() &&
		e.Fair == a.IsFair() && e.Setcon == a.Setcon() && e.CSize == a.CSize() && e.OrbitSize == o.OrbitSize(e.Index)
}

func leadingIndex(line []byte) (uint64, error) {
	const pre = `{"index":`
	if !bytes.HasPrefix(line, []byte(pre)) {
		return 0, fmt.Errorf("census line without a leading index: %.60s", line)
	}
	rest := line[len(pre):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, fmt.Errorf("census line without a leading index: %.60s", line)
	}
	return strconv.ParseUint(string(rest[:end]), 10, 64)
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// spanDurations returns the durations of the program's spans of one
// name, in the order they finished.
func spanDurations(tr *obs.Tracer, name string) []time.Duration {
	var out []time.Duration
	for _, s := range tr.Spans() {
		if s.Name == name {
			out = append(out, s.Duration())
		}
	}
	return out
}

func classifyTimed(r *run) error {
	var o *adversary.Orbits
	if err := r.setup(9, func() error { o = adversary.NewOrbits(5); return nil }); err != nil {
		return err
	}
	sink, path, err := newJSONL(r, "classify.jsonl")
	if err != nil {
		return err
	}
	sw, err := classifySweep(r, 5, r.budget, 0, sink, path)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := checkClassify(r, 5, o, sw); err != nil {
		return err
	}
	shards := partFigures(spanDurations(sw.tr, "census.shard"), 4)
	rate := float64(sw.rep.Summary.Orbits) / sw.elapsed.Seconds()
	r.set("throughput_per_s", rate, "1/s")
	r.set("p50_ms", shards.p50, "ms")
	r.set("tail_ms", shards.tail, "ms")
	r.named("classify.orbits_per_s", rate, "1/s")
	r.named("classify.orbits", float64(sw.rep.Summary.Orbits), "count")
	r.named("classify.raw_indices", float64(sw.next), "count")
	r.namedFigures("classify.shard", shards)
	return nil
}

// histogram reads a census histogram's running sum and count from the
// program's own metrics registry.
func histogram(name string) (sum float64, count float64) {
	var b bytes.Buffer
	obs.Default.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case name + "_sum":
			sum = v
		case name + "_count":
			count = v
		}
	}
	return sum, count
}

func classifyReplay(r *run, probe bool) error {
	n, budget, every := 5, r.budget/3, uint64(0)
	if probe {
		n, budget, every = 4, 0, 1<<12
	}
	o := adversary.NewOrbits(n)
	var plain *sweepResult
	if !probe {
		// Untraced: the same sweep without the timing sink, the base of
		// the tracing overhead.
		sink, path, err := newJSONL(r, "plain.jsonl")
		if err != nil {
			return err
		}
		plain, err = classifySweep(r, n, budget, every, sink, path)
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	js, path, err := newJSONL(r, "traced.jsonl")
	if err != nil {
		return err
	}
	sink := &timedSink{s: js}
	ckSum0, ckN0 := histogram("factool_census_checkpoint_seconds")
	shSum0, shN0 := histogram("factool_census_shard_seconds")
	sw, err := classifySweep(r, n, budget, every, sink, path)
	if err != nil {
		js.Close()
		return err
	}
	ckSum1, ckN1 := histogram("factool_census_checkpoint_seconds")
	shSum1, shN1 := histogram("factool_census_shard_seconds")
	bytesOut := sink.Offset()
	if err := js.Close(); err != nil {
		return err
	}
	if err := checkClassify(r, n, o, sw); err != nil {
		return err
	}

	// The canonical generator alone over the same window.
	t0 := time.Now()
	walked := 0
	o.ForEachCanonicalFrom(0, func(idx, _ uint64) bool {
		if idx >= sw.next {
			return false
		}
		walked++
		return true
	})
	canon := time.Since(t0)

	// Classification alone, on a seeded sample of the window.
	domain := adversary.EnumerationDomain(n)
	const classified = 20000
	t0 = time.Now()
	for i := 0; i < classified; i++ {
		a := adversary.AdversaryAtIn(n, domain, uint64(r.rng.Int63n(int64(sw.next))))
		_, _, _, _, _ = a.IsSupersetClosed(), a.IsSymmetric(), a.IsFair(), a.Setcon(), a.CSize()
		_ = a.String()
	}
	classify := time.Since(t0)

	shardBusy := newDist(spanDurations(sw.tr, "census.shard")).sum()
	ckTime := time.Duration((ckSum1 - ckSum0) * float64(time.Second))
	capacity := time.Duration(classifyWorkers) * sw.elapsed
	r.set("adversary.canonical_ns", float64(canon.Nanoseconds())/float64(max(walked, 1)), "ns")
	r.set("adversary.classify_ns", float64(classify.Nanoseconds())/classified, "ns")
	r.set("census.sink_emit_ns", float64(sink.spent.Nanoseconds())/float64(max(sink.emits, 1)), "ns")
	r.set("census.sink_bytes", float64(bytesOut), "bytes")
	r.set("census.checkpoint_ms", 1000*(ckSum1-ckSum0)/max(ckN1-ckN0, 1), "ms")
	r.set("census.shard_ms", 1000*(shSum1-shSum0)/max(shN1-shN0, 1), "ms")
	sec := map[string]any{
		"n": n, "orbits": sw.rep.Summary.Orbits, "raw_frontier": sw.next, "elapsed_ms": ms(sw.elapsed), "workers": classifyWorkers,
		"worker_time_ms": ms(capacity),
		"self_time": map[string]any{
			"census.shard (examination, on workers)": map[string]any{"ms": ms(shardBusy), "share": float64(shardBusy) / float64(capacity)},
			"census.sink_emit":                       map[string]any{"ms": ms(sink.spent), "share": float64(sink.spent) / float64(capacity)},
			"census.checkpoint":                      map[string]any{"ms": ms(ckTime), "share": float64(ckTime) / float64(capacity)},
		},
		"unaccounted_share": 1 - float64(shardBusy+sink.spent+ckTime)/float64(capacity),
		"unaccounted_note":  "worker time outside shards, emits and checkpoints: the producer, the reorder window and idle waits",
		"census_spans_note": "census.sweep/shard spans are always on in the program and are part of the untraced figures",
	}
	if plain != nil {
		pr := float64(plain.rep.Summary.Orbits) / plain.elapsed.Seconds()
		tr := float64(sw.rep.Summary.Orbits) / sw.elapsed.Seconds()
		sec["untraced_orbits_per_s"], sec["traced_orbits_per_s"] = pr, tr
		sec["overhead_share"] = pr/tr - 1
		sec["overhead_basis"] = "orbits/s of a plain JSONL sweep against the timing-sink sweep, equal budgets from index 0"
	}
	r.report("classify", sec)
	return nil
}
