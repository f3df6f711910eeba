package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/census"
	"repro/internal/store"
)

// Serve traffic: open-loop classify requests at fixed spacing, every
// batchEvery-th one a batch POST of batchSize indices and the others
// single GETs, with seeded indices uniform over the domain. The fixed
// pattern keeps queueing, and so the tail, repeatable; the seed moves
// only the indices. The fixed rates sit near 30% and 70% of the
// capacity measured when the benchmark was written.
const (
	batchEvery   = 4
	batchSize    = 16
	lowRate      = 45.0
	highRate     = 105.0
	startRate    = 150.0                 // first max_rps probe
	rateProbes   = 6                     // max_rps probes per run
	latencyLimit = 50 * time.Millisecond // tail limit of a passing rate
	verifyEvery  = 10                    // every 10th response is checked against census
)

// serveEnv is a complete non-orbit store written by census.Stream and
// store.Merge, served by store.NewServer over loopback HTTP.
type serveEnv struct {
	n      int
	dir    string // the store directory
	st     *store.Store
	srv    *store.Server
	hs     *http.Server
	served chan error
	base   string
	merge  time.Duration
}

func newServeEnv(r *run, n int, dir string) (*serveEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	shard := filepath.Join(dir, "full.jsonl")
	sink, err := census.NewJSONLSink(shard)
	if err != nil {
		return nil, err
	}
	_, err = census.Stream(n, census.Options{Workers: r.par}, sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "store")
	st, err := store.Create(storeDir, n)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := st.Merge([]string{shard}, store.MergeOptions{}); err != nil {
		st.Close()
		return nil, err
	}
	env := &serveEnv{n: n, dir: storeDir, st: st, merge: time.Since(t0), served: make(chan error, 1)}
	if env.srv, err = newServer(st); err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.srv.Handler()}
	go func() { env.served <- env.hs.Serve(ln) }()
	return env, nil
}

// newServer serves one store. It is read-only: a complete store never
// misses, and write-back is not part of this workload.
func newServer(st *store.Store) (*store.Server, error) {
	reg := store.NewRegistry()
	if err := reg.Mount(fmt.Sprintf("n%d", st.N()), st); err != nil {
		return nil, err
	}
	return store.NewServer(reg, store.ServerOptions{ReadOnly: true})
}

func (e *serveEnv) close() error {
	err := e.hs.Close()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := e.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// request is one classify request: a single index or a batch.
type request struct {
	batch bool
	idx   []uint64
}

func genRequests(rng *rand.Rand, n, count int) []request {
	domain := int64(adversary.CensusSize(n))
	qs := make([]request, count)
	for i := range qs {
		k := 1
		if i%batchEvery == batchEvery-1 {
			k = batchSize
			qs[i].batch = true
		}
		for j := 0; j < k; j++ {
			qs[i].idx = append(qs[i].idx, uint64(rng.Int63n(domain)))
		}
	}
	return qs
}

func (q request) http(n int, base string) (*http.Request, error) {
	if !q.batch {
		return http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/classify?n=%d&index=%d", base, n, q.idx[0]), nil)
	}
	body, err := json.Marshal(map[string]any{"n": n, "indices": q.idx})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/classify", bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
}

// send issues one request over loopback and returns the body of a 200.
func send(c *http.Client, n int, base string, q request) ([]byte, error) {
	req, err := q.http(n, base)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, nil
}

// checkBody compares a classify response with census.Examiner's entry
// for every index it answers.
func checkBody(ex *census.Examiner, q request, body []byte) error {
	type one struct {
		Index uint64       `json:"index"`
		Entry census.Entry `json:"entry"`
	}
	var got []one
	if q.batch {
		var b struct {
			Results []one `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		got = b.Results
	} else {
		var o one
		if err := json.Unmarshal(body, &o); err != nil {
			return err
		}
		got = []one{o}
	}
	if len(got) != len(q.idx) {
		return fmt.Errorf("%d results for %d indices", len(got), len(q.idx))
	}
	for i, idx := range q.idx {
		want, err := ex.Examine(idx)
		if err != nil {
			return err
		}
		a, _ := json.Marshal(&got[i].Entry)
		b, _ := json.Marshal(&want)
		if got[i].Index != idx || !bytes.Equal(a, b) {
			return fmt.Errorf("index %d: served entry differs from census", idx)
		}
	}
	return nil
}

// traffic runs open-loop phases against one server and keeps every
// verifyEvery-th response for checking after the load.
type traffic struct {
	r      *run
	env    *serveEnv
	client *http.Client
	kept   []request
	bodies [][]byte
}

func (t *traffic) phase(rate float64, d time.Duration) loadResult {
	count := max(1, int(rate*d.Seconds()))
	qs := genRequests(t.r.rng, t.env.n, count)
	bodies := make([][]byte, count)
	res := openLoop(rate, count, t.r.par, func(i int) error {
		body, err := send(t.client, t.env.n, t.env.base, qs[i])
		if err == nil && i%verifyEvery == 0 {
			bodies[i] = body
		}
		return err
	})
	t.r.attempt(count)
	for i, failed := range res.failed {
		t.r.check(!failed, "request at %.0f req/s failed", rate)
		if bodies[i] != nil {
			t.kept, t.bodies = append(t.kept, qs[i]), append(t.bodies, bodies[i])
		}
	}
	return res
}

// verify checks the kept responses; a wrong one is a failed request.
func (t *traffic) verify() error {
	ex, err := census.NewExaminer(t.env.n, census.Options{})
	if err != nil {
		return err
	}
	for i, q := range t.kept {
		err := checkBody(ex, q, t.bodies[i])
		t.r.check(err == nil, "response check: %v", err)
	}
	return nil
}

func serveTimed(r *run) error {
	var env *serveEnv
	rep := 0
	err := r.setup(3, func() error {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
		}
		rep++
		var err error
		env, err = newServeEnv(r, 4, filepath.Join(r.dir, fmt.Sprintf("setup%d", rep)))
		return err
	})
	if err != nil {
		return err
	}
	defer env.close()
	t := &traffic{r: r, env: env, client: newClient(r.par)}
	defer t.client.CloseIdleConnections()
	// Latency at the fixed rates, as medians over back-to-back parts.
	low := partFigures(t.phase(lowRate, r.budget*2/10).okLatencies(), 2)
	high := partFigures(t.phase(highRate, r.budget*3/10).okLatencies(), 3)
	probe := r.budget * 5 / 10 / rateProbes
	maxRPS := maxRate(func(rate float64) bool {
		return meetsLimit(t.phase(rate, probe), latencyLimit, r.par)
	}, startRate, rateProbes)
	if err := t.verify(); err != nil {
		return err
	}
	r.check(maxRPS > 0, "no probed rate met the %v tail limit", latencyLimit)
	r.set("throughput_per_s", maxRPS, "1/s")
	r.set("p50_ms", low.p50, "ms")
	r.set("tail_ms", high.tail, "ms")
	r.named("serve.max_rps", maxRPS, "1/s")
	r.namedFigures("serve.low", low)
	r.namedFigures("serve.high", high)
	return nil
}

// counters sums the serve layer's store counters from its /metrics page.
func counters(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		v, _ := strconv.ParseFloat(f[1], 64)
		out[name] += v
	}
	return out
}

func serveReplay(r *run, probe bool) error {
	n, count, openFor := 4, 600, 2*time.Second
	if probe {
		count, openFor = 150, 500*time.Millisecond
	}
	env, err := newServeEnv(r, n, filepath.Join(r.dir, "replay"))
	if err != nil {
		return err
	}
	defer env.close()
	ex, err := census.NewExaminer(n, census.Options{})
	if err != nil {
		return err
	}
	r.set("store.merge_s", env.merge.Seconds(), "s")
	r.set("store.blocks", float64(env.st.Stats().Blocks), "count")

	// The same requests three ways, each against its own cold instance
	// of the store, so block-cache state evolves alike in all three:
	// loopback round trips (one connection, closed loop), the handler in
	// process without any network, and the store's Lookup alone.
	qs := genRequests(r.rng, n, count)
	stH, err := store.Open(env.dir)
	if err != nil {
		return err
	}
	defer stH.Close()
	srvH, err := newServer(stH)
	if err != nil {
		return err
	}
	stL, err := store.Open(env.dir)
	if err != nil {
		return err
	}
	defer stL.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	var loop, handler, lookup []time.Duration
	var lookupPerReq time.Duration
	for _, q := range qs {
		r.attempt(1)
		t0 := time.Now()
		body, err := send(client, n, env.base, q)
		loop = append(loop, time.Since(t0))
		if r.check(err == nil, "loopback request: %v", err) {
			err = checkBody(ex, q, body)
			r.check(err == nil, "loopback response: %v", err)
		}
	}
	h := srvH.Handler()
	for _, q := range qs {
		req, err := q.http(n, "")
		if err != nil {
			return err
		}
		r.attempt(1)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, time.Since(t0))
		if r.check(rec.Code == http.StatusOK, "in-process request: status %d", rec.Code) {
			err = checkBody(ex, q, rec.Body.Bytes())
			r.check(err == nil, "in-process response: %v", err)
		}
	}
	for _, q := range qs {
		var sum time.Duration
		for _, idx := range q.idx {
			r.attempt(1)
			t0 := time.Now()
			e, src, err := stL.Lookup(idx, nil)
			d := time.Since(t0)
			lookup, sum = append(lookup, d), sum+d
			r.check(err == nil && src == store.LookupDirect && e.Index == idx, "lookup %d: source %v, %v", idx, src, err)
		}
		lookupPerReq += sum
	}
	lookupPerReq /= time.Duration(count)
	c := counters(env.srv.Handler())

	// Generator lateness of a short open-loop phase at the high rate.
	t := &traffic{r: r, env: env, client: newClient(r.par)}
	defer t.client.CloseIdleConnections()
	gen := t.phase(highRate, openFor)
	if err := t.verify(); err != nil {
		return err
	}
	late, lateP := newDist(gen.late).tail()

	ld, hd, sd := newDist(loop), newDist(handler), newDist(lookup)
	lt, _ := sd.tail()
	ht, htp := hd.tail()
	r.set("store.lookup_p50_us", us(sd.median()), "us")
	r.set("store.lookup_p99_us", us(lt), "us")
	r.set("store.hits", c["factool_store_hits_total"], "count")
	r.set("store.entry_cache_hits", c["factool_entry_cache_hits_total"], "count")
	r.set("store.rehydrated", c["factool_store_rehydrated_total"], "count")
	r.set("api.handler_p50_us", us(hd.median()), "us")
	r.set("api.handler_p99_us", us(ht), "us")
	r.set("serve.transport_share", float64(ld.median()-hd.median())/float64(ld.median()), "ratio")
	r.set("serve.gen_late_ms", ms(late), "ms")
	lm, hm := ld.mean(), hd.mean()
	r.report("serve", map[string]any{
		"n": n, "requests_per_pass": count, "blocks": env.st.Stats().Blocks,
		"attribution_note": "no spans inside the request path: each layer is timed as a whole call on the same requests against its own cold store instance, and shares are differences of means; direct lookups bypass the server's entry cache, which the handler share absorbs",
		"mean_ms":          map[string]any{"loopback": ms(lm), "handler": ms(hm), "store_lookups_per_request": ms(lookupPerReq)},
		"self_time": map[string]any{
			"transport (loopback minus handler)": float64(lm-hm) / float64(lm),
			"api (handler minus store lookups)":  float64(hm-lookupPerReq) / float64(lm),
			"store (lookups)":                    float64(lookupPerReq) / float64(lm),
		},
		"tail_percentiles":     map[string]any{"handler": htp, "generator_lateness": lateP},
		"overhead_share":       0.0,
		"overhead_basis":       "the replay adds no spans to the request path; calls are timed from outside",
		"server_counters":      c,
		"open_loop_rate_per_s": highRate,
		"open_loop_requests":   len(gen.lat),
	})
	return nil
}
