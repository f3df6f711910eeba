package main

import (
	"errors"
	"fmt"
	"time"

	fact "repro"
	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/procs"
	"repro/internal/sc"
	"repro/internal/solver"
	"repro/internal/tasks"
)

// spernerNodes is the fixed search budget of the wait-free kset:k=2
// instance; the search exhausts it, so its time is search throughput.
const spernerNodes = 100_000

// batterySamples is the fewest decisions the timed battery makes.
const batterySamples = 200

// decideCase is one decision of the E12 battery: a fair n=3 model and
// k, with the FACT prediction k >= setcon.
type decideCase struct {
	name string
	live []procs.Set // the adversary is rebuilt per decision from these
	k    int
	want bool
}

// batteryCases is the E12 battery: five models × k = 1..3, without the
// wait-free k=2 instance that bounded search cannot decide.
func batteryCases() ([]decideCase, error) {
	fig5b, err := adversary.SupersetClosure(3, procs.SetOf(1), procs.SetOf(0, 2))
	if err != nil {
		return nil, err
	}
	models := []struct {
		name string
		a    *adversary.Adversary
	}{
		{"1-OF", adversary.KObstructionFree(3, 1)},
		{"2-OF", adversary.KObstructionFree(3, 2)},
		{"1-res", adversary.TResilient(3, 1)},
		{"wait-free", adversary.WaitFree(3)},
		{"fig5b", fig5b},
	}
	var cases []decideCase
	for _, m := range models {
		setcon := m.a.Setcon()
		for k := 1; k <= 3; k++ {
			if setcon == 3 && k == 2 {
				continue
			}
			cases = append(cases, decideCase{
				name: fmt.Sprintf("%s/k=%d", m.name, k), live: m.a.LiveSets(), k: k, want: k >= setcon,
			})
		}
	}
	return cases, nil
}

func (c decideCase) adversary() *adversary.Adversary { return adversary.MustNew(3, c.live...) }

// witnesses keeps every distinct witness map found per case, verified
// after the timed window.
type witnesses map[string]map[string]sc.Map

func (w witnesses) add(c decideCase, m sc.Map) {
	if w[c.name] == nil {
		w[c.name] = map[string]sc.Map{}
	}
	w[c.name][fmt.Sprint(m)] = m
}

// battery runs seeded passes of the battery through fact.Model, each
// pass on a fresh TowerCache, until the window ends and at least
// minSamples decisions were timed. Verdicts are checked as they come.
// It returns the decision latencies and the caches' summed hits and
// misses.
func battery(r *run, cases []decideCase, workers int, window time.Duration, minSamples int,
	wit witnesses) (lats []time.Duration, hits, misses int64) {
	end := time.Now().Add(window)
	for len(lats) < minSamples || time.Now().Before(end) {
		cache := chromatic.NewTowerCache()
		for _, i := range r.rng.Perm(len(cases)) {
			c := cases[i]
			r.attempt(1)
			t0 := time.Now()
			m, err := fact.NewModel(c.adversary())
			if !r.check(err == nil, "%s: model: %v", c.name, err) {
				continue
			}
			m.SetWorkers(workers)
			res, err := m.SolveWith(tasks.KSetConsensus(3, c.k), 1, solver.Options{Cache: cache})
			lats = append(lats, time.Since(t0))
			if !r.check(err == nil, "%s: %v", c.name, err) {
				continue
			}
			if r.check(res.Solvable == c.want, "%s: solvable=%v, FACT predicts %v", c.name, res.Solvable, c.want) && res.Solvable && wit != nil {
				wit.add(c, res.Map)
			}
		}
		h, m := cache.Stats()
		hits, misses = hits+h, misses+m
	}
	return lats, hits, misses
}

// batteryModels builds one fact.Model per battery model, keyed by case
// name: the models the battery's witnesses are verified against.
func batteryModels(cases []decideCase) (map[string]*fact.Model, error) {
	byLive := map[string]*fact.Model{}
	out := map[string]*fact.Model{}
	for _, c := range cases {
		key := fmt.Sprint(c.live)
		if byLive[key] == nil {
			m, err := fact.NewModel(c.adversary())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			byLive[key] = m
		}
		out[c.name] = byLive[key]
	}
	return out, nil
}

// verifyWitnesses re-checks every distinct witness with Model.VerifyWitness.
func verifyWitnesses(r *run, cases []decideCase, models map[string]*fact.Model, wit witnesses) {
	for _, c := range cases {
		for _, w := range wit[c.name] {
			err := models[c.name].VerifyWitness(tasks.KSetConsensus(3, c.k), 1, w)
			r.check(err == nil, "%s: witness rejected: %v", c.name, err)
		}
	}
}

// sperner decides the wait-free kset:k=2 instance serially under the
// fixed node budget. Bounded search cannot decide it; a "solvable"
// verdict would contradict Sperner's lemma and fails the run.
func sperner(r *run, nodes int) time.Duration {
	r.attempt(1)
	t0 := time.Now()
	m, err := fact.NewModel(adversary.WaitFree(3))
	if !r.check(err == nil, "sperner: model: %v", err) {
		return time.Since(t0)
	}
	res, err := m.SolveWith(tasks.KSetConsensus(3, 2), 1,
		solver.Options{Workers: 1, NodeLimit: nodes, Cache: chromatic.NewTowerCache()})
	d := time.Since(t0)
	switch {
	case errors.Is(err, solver.ErrSearchLimit):
	case err != nil:
		r.check(false, "sperner: %v", err)
	default:
		r.check(!res.Solvable, "sperner: wait-free 2-set consensus reported solvable")
	}
	return d
}

func decideTimed(r *run) error {
	var cases []decideCase
	var models map[string]*fact.Model
	err := r.setup(31, func() (err error) {
		cases, err = batteryCases()
		if err != nil {
			return err
		}
		models, err = batteryModels(cases)
		return err
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	wit := witnesses{}
	lats, _, _ := battery(r, cases, 0, r.budget*6/10, batterySamples, wit)
	if len(lats)%len(cases) != 0 {
		return fmt.Errorf("timed %d decisions, not whole passes of %d", len(lats), len(cases))
	}
	bat := passFigures(lats, len(lats)/len(cases))
	var sp []float64
	for len(sp) < 3 || time.Since(t0) < r.budget {
		sp = append(sp, sperner(r, spernerNodes).Seconds())
	}
	verifyWitnesses(r, cases, models, wit)

	spS := medianFloat(sp)
	r.set("throughput_per_s", spernerNodes/spS, "1/s")
	r.set("p50_ms", bat.p50, "ms")
	r.set("tail_ms", bat.tail, "ms")
	r.namedFigures("decide.battery", bat)
	r.named("decide.sperner_s", spS, "s")
	r.named("decide.sperner_nodes_per_s", spernerNodes/spS, "1/s")
	return nil
}

// replayDecision makes one decision through the same public calls the
// program makes, in its order, with a span around each: classify,
// BuildRAForAdversary, Spec.Build, Acquire+EnsureHeightTables,
// LevelComplex(l).Facets(), SolveAffineWith, then (for a solvable
// verdict) VerifyWitnessTables. Facets() is memoized per complex, so
// the search span covers only the search proper.
func replayDecision(t *tracer, u *chromatic.Universe, a *adversary.Adversary, spec tasks.Spec, rounds int,
	opts solver.Options) (res *solver.Result, facets int, err error) {
	root := t.begin("decision", 0)
	defer t.finish(root)
	step := func(name string, f func() error) error {
		id := t.begin(name, root)
		defer t.finish(id)
		return f()
	}
	var ra *affine.Task
	var task *tasks.Task
	var ct *chromatic.CachedTower
	steps := []struct {
		name string
		f    func() error
	}{
		{"adversary.classify", func() error {
			_, _, _, _ = a.IsSupersetClosed(), a.IsSymmetric(), a.IsFair(), a.CSize()
			if a.Setcon() < 1 {
				return errors.New("setcon 0: no decision")
			}
			return nil
		}},
		{"affine.build_ra", func() (err error) {
			ra, err = affine.BuildRAForAdversary(u, a, affine.DefaultVariant)
			return err
		}},
		{"tasks.build", func() (err error) { task, err = spec.Build(a.N()); return err }},
		{"chromatic.tower_extend", func() error {
			ct = opts.Cache.Acquire(ra.Signature(), task.Input, opts.Workers)
			return ct.EnsureHeightTables(ra, rounds)
		}},
		{"sc.facets", func() error {
			for l := 1; l <= rounds; l++ {
				facets += len(ct.Tower().LevelComplex(l).Facets())
			}
			return nil
		}},
		{"solver.search", func() (err error) {
			res, err = solver.SolveAffineWith(task, ra, rounds, opts)
			return err
		}},
	}
	for _, s := range steps {
		if err = step(s.name, s.f); err != nil {
			if ct != nil {
				ct.Release()
			}
			return res, facets, err
		}
	}
	ct.Release()
	if res.Solvable {
		err = step("solver.verify", func() error {
			return solver.VerifyWitnessTables(task, ra, res.Rounds, res.Map,
				solver.Options{Workers: opts.Workers, Cache: opts.Cache, CacheKey: ra.Signature()})
		})
	}
	return res, facets, err
}

// decisionLayers are the span names of a replayed decision, in call order.
var decisionLayers = []string{"adversary.classify", "affine.build_ra", "tasks.build",
	"chromatic.tower_extend", "sc.facets", "solver.search", "solver.verify"}

// layerReport turns replayed decisions into the report's self-time
// table and sets the decision-layer metrics (per-decision means).
func layerReport(r *run, t *tracer, decisions, facets int, untraced time.Duration) {
	self := selfTimes(t.spans)
	var total, verify time.Duration
	count := map[string]int{}
	for _, s := range t.spans {
		count[s.name]++
		switch s.name {
		case "decision":
			total += s.end.Sub(s.start)
		case "solver.verify":
			verify += s.end.Sub(s.start)
		}
	}
	table := map[string]any{}
	for _, name := range append([]string{"decision"}, decisionLayers...) {
		label := name
		if name == "decision" {
			label = "unaccounted (decision self time)"
		}
		table[label] = map[string]any{"self_ms": ms(self[name]), "share": float64(self[name]) / float64(total), "calls": count[name]}
	}
	traced := total - verify
	r.report("decisions", map[string]any{
		"decisions":         decisions,
		"decision_ms":       ms(total),
		"self_time":         table,
		"unaccounted_share": float64(self["decision"]) / float64(total),
		"named_share":       1 - float64(self["decision"])/float64(total),
		"untraced_ms":       ms(untraced),
		"traced_ms":         ms(traced),
		"overhead_share":    float64(traced-untraced) / float64(untraced),
		"overhead_basis":    "traced decision time without witness verification against the same decisions untraced",
	})
	per := func(name string) float64 { return ms(self[name]) / float64(decisions) }
	r.set("sc.facets_ms", per("sc.facets"), "ms")
	r.set("sc.facets_count", float64(facets)/float64(decisions), "count")
	r.set("solver.search_ms", per("solver.search"), "ms")
	if n := count["solver.verify"]; n > 0 {
		r.set("solver.verify_ms", ms(self["solver.verify"])/float64(n), "ms")
	}
	r.set("chromatic.tower_extend_ms", per("chromatic.tower_extend"), "ms")
	r.set("affine.build_ra_ms", per("affine.build_ra"), "ms")
	r.set("tasks.build_us", us(self["tasks.build"])/float64(decisions), "us")
}

// cacheRatio sets the tower-cache hit ratio of the program's own
// decision path, with its base (the number of Acquire calls).
func cacheRatio(r *run, hits, misses int64) {
	if hits+misses == 0 {
		return
	}
	r.set("chromatic.tower_cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	r.set("chromatic.tower_cache_acquires", float64(hits+misses), "count")
}

func decideReplay(r *run, probe bool) error {
	cases, err := batteryCases()
	if err != nil {
		return err
	}
	window, nodes := r.budget/5, spernerNodes
	if probe {
		window, nodes = 0, spernerNodes/5
	}
	// Untraced passes at the default worker count: the overhead base and
	// the tower-cache figures of the program's own path.
	lats, hits, misses := battery(r, cases, 0, window, len(cases), nil)
	untraced := newDist(lats)
	passes := len(untraced) / len(cases)

	// Traced passes: the same decisions, replayed call by call.
	t := &tracer{}
	u := chromatic.SharedUniverse(3)
	facets := 0
	for p := 0; p < passes; p++ {
		cache := chromatic.NewTowerCache()
		for _, i := range r.rng.Perm(len(cases)) {
			c := cases[i]
			r.attempt(1)
			res, f, err := replayDecision(t, u, c.adversary(), tasks.KSetSpec(c.k), 1, solver.Options{Cache: cache})
			facets += f
			if r.check(err == nil, "%s replay: %v", c.name, err) {
				r.check(res.Solvable == c.want, "%s replay: solvable=%v, FACT predicts %v", c.name, res.Solvable, c.want)
			}
		}
	}
	layerReport(r, t, passes*len(cases), facets, untraced.sum())
	cacheRatio(r, hits, misses)

	// Inner parallelism: the battery at Workers:1.
	w1lats, _, _ := battery(r, cases, 1, window, len(cases), nil)
	w1 := newDist(w1lats)
	r.set("decide.battery_w1_p50_ms", ms(w1.median()), "ms")
	r.report("battery_p50_ms", map[string]any{"default_workers": ms(untraced.median()), "workers_1": ms(w1.median()), "samples": len(w1)})

	// Search throughput on the Sperner instance, from the search span.
	st := &tracer{}
	r.attempt(1)
	_, _, err = replayDecision(st, chromatic.NewUniverse(3), adversary.WaitFree(3), tasks.KSetSpec(2), 1,
		solver.Options{Workers: 1, NodeLimit: nodes, Cache: chromatic.NewTowerCache()})
	r.check(errors.Is(err, solver.ErrSearchLimit), "sperner replay: want the node limit, got %v", err)
	search := selfTimes(st.spans)["solver.search"]
	r.set("solver.ns_per_node", float64(search.Nanoseconds())/float64(nodes), "ns")
	r.report("sperner", map[string]any{"node_limit": nodes, "search_ms": ms(search)})
	return nil
}
