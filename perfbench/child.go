package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// run is the state of one workload run inside the child process.
type run struct {
	seed    int64
	rng     *rand.Rand
	budget  time.Duration // the measured window
	dir     string        // scratch directory for files the program writes
	par     int           // census workers and client connections: min(2, CPUs)
	out     childOut
	sources map[string]string // per-layer metric -> replay that measured it
	replay  string            // the replay now running, which owns its report section
}

// workload is one named benchmark workload: a timed run reporting the
// end-to-end metrics and a traced replay reporting per-layer ones. The
// replay's probe form measures the same layers on a small fixed input,
// so every traced run reports every layer.
type workload struct {
	timed  func(r *run) error
	replay func(r *run, probe bool) error
}

var workloads = map[string]workload{
	"solve-n4":    {timed: solveTimed, replay: solveReplay},
	"classify-n5": {timed: classifyTimed, replay: classifyReplay},
	"decide-n3":   {timed: decideTimed, replay: decideReplay},
	"serve-n4":    {timed: serveTimed, replay: serveReplay},
}

// probeOrder fixes the order the other workloads' probes run in.
var probeOrder = []string{"decide-n3", "solve-n4", "classify-n5", "serve-n4"}

func runChild(name string, seed int64, seconds int, trace bool, dir string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r := &run{
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		budget:  time.Duration(seconds) * time.Second,
		dir:     dir,
		par:     min(2, runtime.NumCPU()),
		out:     childOut{Metrics: map[string]metric{}, Named: map[string]metric{}},
		sources: map[string]string{},
	}
	if !trace {
		if err := w.timed(r); err != nil {
			return err
		}
	} else {
		r.out.Report = map[string]any{}
		r.replay = name
		if err := w.replay(r, false); err != nil {
			return err
		}
		r.markSources(r.replay)
		for _, other := range probeOrder {
			if other == name {
				continue
			}
			r.replay = other + " probe"
			if err := workloads[other].replay(r, true); err != nil {
				return fmt.Errorf("%s: %w", r.replay, err)
			}
			r.markSources(r.replay)
		}
		r.out.Report["metric_sources"] = r.sources
		r.out.Named = nil
	}
	if r.out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", name)
	}
	return json.NewEncoder(os.Stdout).Encode(r.out)
}

// set records a BENCHMARK.json metric. In a traced run a layer metric keeps
// the value of the first replay that measured it: the workload's own,
// before any probe.
func (r *run) set(name string, v float64, unit string) {
	if _, ok := r.out.Metrics[name]; ok && r.out.Report != nil {
		return
	}
	r.out.Metrics[name] = metric{v, unit}
}

// named records one of the workload's named end-to-end figures.
func (r *run) named(name string, v float64, unit string) {
	r.out.Named[name] = metric{v, unit}
}

// namedFigures records a latency sample's median and tail under prefix,
// with the tail's percentile and the sample count.
func (r *run) namedFigures(prefix string, f figures) {
	r.named(prefix+".p50_ms", f.p50, "ms")
	r.named(prefix+".tail_ms", f.tail, "ms")
	r.named(prefix+".tail_pct", f.pct, "%")
	r.named(prefix+".samples", float64(f.samples), "count")
}

func (r *run) markSources(src string) {
	for k := range r.out.Metrics {
		if _, ok := r.sources[k]; !ok {
			r.sources[k] = src
		}
	}
}

// attempt counts n operations; check counts one failed operation when
// ok is false and keeps the first problems for the report.
func (r *run) attempt(n int) { r.out.Attempted += int64(n) }

func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.out.Failed++
		if len(r.out.Problems) < 20 {
			r.out.Problems = append(r.out.Problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// setup runs build reps times and records the median wall time as
// setup_s; the state of the last build is what the run uses.
func (r *run) setup(reps int, build func() error) error {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	v := medianFloat(ts)
	r.set("setup_s", v, "s")
	r.named("setup_s", v, "s")
	return nil
}

// report stores one entry in the current replay's section of the
// traced-run report; timed runs keep no report.
func (r *run) report(key string, v any) {
	if r.out.Report == nil {
		return
	}
	sec, _ := r.out.Report[r.replay].(map[string]any)
	if sec == nil {
		sec = map[string]any{}
		r.out.Report[r.replay] = sec
	}
	sec[key] = v
}
