package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Serve-mix load: the measured rate, and the stepped rates a traced run
// offers to find the highest sustainable one. A step is sustained when
// its all-request tail is within maxTailMS, failures counting as
// misses, and the generator never ran more than maxLateMS behind.
const (
	measuredRate = 10.0
	maxTailMS    = 500.0
	maxLateMS    = 100.0
)

var rampRates = []float64{5, 10, 20, 40}

// serveSetups is how many times a serve-mix run builds its inputs.
const serveSetups = 3

// wireRequest mirrors the server's /explain and /diff request body.
type wireRequest struct {
	Topology      string `json:"topology"`
	Configs       string `json:"configs"`
	Spec          string `json:"spec"`
	EditedConfigs string `json:"edited_configs,omitempty"`
}

// serveCall is one request the generator can send, with the report a
// direct core call produces for the same problem.
type serveCall struct {
	path string
	body []byte
	want string
}

// serveSet is the traffic's problem set: per scenario, its base
// problem and its edited variants.
type serveSet struct {
	bases    []serveCall   // /explain of each scenario
	variants [][]serveCall // /explain of each variant, by scenario
	diffs    [][]serveCall // /diff from base to each variant, by scenario
}

func coldReport(ctx context.Context, net *topology.Network, reqs []spec.Requirement, dep config.Deployment) (string, error) {
	e, err := core.NewExplainer(net, reqs, dep, core.DefaultOptions())
	if err != nil {
		return "", err
	}
	return e.ReportContext(ctx)
}

// buildServeSet synthesizes the scenarios and screens seeded Perturb
// variants of each: a variant whose edit breaks the intent cannot be
// explained and is skipped, so served traffic never fails by choice of
// input. The cold reports double as the expected response bodies.
func buildServeSet(ctx context.Context, seed int64, perScenario int) (*serveSet, error) {
	rng := rand.New(rand.NewSource(seed))
	set := &serveSet{}
	enc := func(w wireRequest) []byte {
		b, _ := json.Marshal(w) // strings only: cannot fail
		return b
	}
	for _, sc := range scenarios.All() {
		res, err := synth.SynthesizeContext(ctx, sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		topo, spc, cfgs := topology.Print(sc.Net), spec.Print(sc.Spec), config.PrintDeployment(res.Deployment)
		want, err := coldReport(ctx, sc.Net, sc.Requirements(), res.Deployment)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		set.bases = append(set.bases, serveCall{"/explain", enc(wireRequest{Topology: topo, Configs: cfgs, Spec: spc}), want})
		var variants, diffs []serveCall
		seen := map[string]bool{cfgs: true}
		for tries := 0; len(variants) < perScenario && tries < 8*perScenario; tries++ {
			dep, _ := netgen.Perturb(res.Deployment, rng.Int63(), 1)
			text := config.PrintDeployment(dep)
			if seen[text] {
				continue
			}
			seen[text] = true
			want, err := coldReport(ctx, sc.Net, sc.Requirements(), dep)
			if err != nil {
				continue
			}
			variants = append(variants, serveCall{"/explain", enc(wireRequest{Topology: topo, Configs: text, Spec: spc}), want})
			diffs = append(diffs, serveCall{"/diff", enc(wireRequest{Topology: topo, Configs: cfgs, Spec: spc, EditedConfigs: text}), want})
		}
		if len(variants) < perScenario {
			return nil, fmt.Errorf("%s: only %d explainable variants", sc.Name, len(variants))
		}
		// Each kind of request walks the variants in its own seeded order.
		shuffle := func(calls []serveCall) []serveCall {
			rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
			return calls
		}
		set.variants = append(set.variants, shuffle(variants))
		set.diffs = append(set.diffs, shuffle(diffs))
	}
	return set, nil
}

// serveRun is one live server and its load generator.
type serveRun struct {
	r      *runner
	set    *serveSet
	ts     *httptest.Server
	client *http.Client
	sent   [3]int // requests picked so far, by kind
	reqID  int64
}

func newServeRun(r *runner, set *serveSet) *serveRun {
	// At most one client connection per CPU: requests beyond that wait
	// for a connection, and the wait counts in their latency.
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	return &serveRun{r: r, set: set, client: &http.Client{Transport: tr, Timeout: deadline}}
}

// start replaces the server, if any, with a fresh one (empty response
// cache and session pool, default options), restarts the request
// sequence, and sends each base problem once so the traffic starts with
// the hot keys cached.
func (s *serveRun) start() {
	if s.ts != nil {
		s.close()
	}
	s.ts = httptest.NewServer(server.New(server.Options{}).Handler())
	s.sent = [3]int{}
	s.warm()
}

func (s *serveRun) close() {
	s.client.Transport.(*http.Transport).CloseIdleConnections()
	s.ts.Close()
}

// The request kinds, and the fixed order they repeat in: half are
// repeat explains of a base problem (response-cache hits), a quarter
// explain an edited variant, a quarter diff from base to variant. Each
// kind rotates through the scenarios and walks each scenario's variants
// in its own seeded order, starting over once it has named them all, so
// every run offers the same proportions: on one server, a walk's first
// pass misses the response cache and later passes hit it. An /explain
// of a variant an earlier /diff left in the session pool is a pool hit.
const (
	baseExplain = iota
	variantExplain
	variantDiff
)

var mixPattern = []int{baseExplain, variantExplain, baseExplain, variantDiff}

// pick returns the next request of the mix.
func (s *serveRun) pick() serveCall {
	total := s.sent[0] + s.sent[1] + s.sent[2]
	kind := mixPattern[total%len(mixPattern)]
	n := s.sent[kind]
	s.sent[kind]++
	sc := n % len(s.set.bases)
	switch kind {
	case variantExplain:
		vs := s.set.variants[sc]
		return vs[(n/len(s.set.bases))%len(vs)]
	case variantDiff:
		ds := s.set.diffs[sc]
		return ds[(n/len(s.set.bases))%len(ds)]
	}
	return s.set.bases[sc]
}

// reqRecord is one request's timeline. Latency runs from due, the time
// the open-loop schedule meant to send it.
type reqRecord struct {
	id                int64
	due, sent, done   time.Time
	connWait, service time.Duration // traced requests only
	hit               bool
	err               error
}

func (rec *reqRecord) latencyMS() float64 {
	if rec.err != nil {
		return math.Inf(1)
	}
	return ms(rec.done.Sub(rec.due))
}

// phases collects httptrace callbacks, which run on the transport's
// goroutines.
type phases struct {
	mu                             sync.Mutex
	getConn, gotConn, wrote, first time.Time
}

func (p *phases) mark(t *time.Time) {
	p.mu.Lock()
	*t = time.Now()
	p.mu.Unlock()
}

// do sends one request and checks its response: a 200 whose report is
// the direct core report of the same problem.
func (s *serveRun) do(ctx context.Context, call serveCall, rec *reqRecord, traced bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+call.path, bytes.NewReader(call.body))
	if err != nil {
		rec.err = err
		return
	}
	var ph phases
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn:              func(string) { ph.mark(&ph.getConn) },
			GotConn:              func(httptrace.GotConnInfo) { ph.mark(&ph.gotConn) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { ph.mark(&ph.wrote) },
			GotFirstResponseByte: func() { ph.mark(&ph.first) },
		}))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		rec.err, rec.done = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = time.Now()
	rec.hit = resp.Header.Get("X-Cache") == "hit"
	if traced {
		ph.mu.Lock()
		rec.connWait, rec.service = ph.gotConn.Sub(ph.getConn), ph.first.Sub(ph.wrote)
		ph.mu.Unlock()
	}
	switch {
	case err != nil:
		rec.err = err
	case resp.StatusCode != http.StatusOK:
		rec.err = fmt.Errorf("%s: status %d: %.200s", call.path, resp.StatusCode, body)
	default:
		var out struct {
			Report  string `json:"report"`
			Summary string `json:"summary"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			rec.err = fmt.Errorf("%s: response: %w", call.path, err)
		} else if out.Report != call.want || (call.path == "/diff" && out.Summary == "") {
			rec.err = fmt.Errorf("%s: response differs from the direct core report", call.path)
		}
	}
}

// stepSummary is one offered rate's outcome.
type stepSummary struct {
	RateRPS       float64 `json:"rate_rps"`
	Traced        bool    `json:"traced"`
	Requests      int     `json:"requests"`
	Failed        int     `json:"failed"`
	Hits          int     `json:"hits"`
	HitP50MS      float64 `json:"hit_p50_ms"`
	MissP50MS     float64 `json:"miss_p50_ms"`
	MissTailMS    float64 `json:"miss_tail_ms"`
	AllTailMS     float64 `json:"all_tail_ms"` // -1: failures reach the tail
	LateMaxMS     float64 `json:"late_max_ms"`
	ConnWaitP50MS float64 `json:"conn_wait_p50_ms"`
	Sustained     bool    `json:"sustained"`
	// Server is how far the server's /metrics counters moved over the
	// step (see serverCounters).
	Server map[string]float64 `json:"server,omitempty"`
}

// step offers requests at rate for dur from this one goroutine, an open
// loop: each request is sent when due, whether or not earlier ones have
// completed. It returns once every request has.
func (s *serveRun) step(rate float64, dur time.Duration, traced bool) []reqRecord {
	n := int(rate * dur.Seconds())
	recs := make([]reqRecord, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range recs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		call := s.pick()
		s.reqID++
		rec := &recs[i]
		rec.id, rec.due, rec.sent = s.reqID, due, time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.do(s.r.ctx, call, rec, traced)
		}()
	}
	wg.Wait()
	for i := range recs {
		s.r.attempt(recs[i].err)
	}
	return recs
}

// summarize sums up a step and returns its misses' latencies.
func summarize(rate float64, traced bool, recs []reqRecord) (stepSummary, []float64) {
	st := stepSummary{RateRPS: rate, Traced: traced, Requests: len(recs)}
	var hit, miss, all, wait []float64
	for i := range recs {
		rec := &recs[i]
		st.LateMaxMS = max(st.LateMaxMS, ms(rec.sent.Sub(rec.due)))
		all = append(all, rec.latencyMS())
		switch {
		case rec.err != nil:
			st.Failed++
			continue
		case rec.hit:
			st.Hits++
			hit = append(hit, rec.latencyMS())
		default:
			miss = append(miss, rec.latencyMS())
		}
		if traced {
			wait = append(wait, ms(rec.connWait))
		}
	}
	st.HitP50MS, st.MissP50MS, st.MissTailMS = median(hit), median(miss), tail(miss)
	st.AllTailMS, st.ConnWaitP50MS = tail(all), median(wait)
	st.Sustained = st.AllTailMS <= maxTailMS && st.LateMaxMS <= maxLateMS
	if math.IsInf(st.AllTailMS, 1) {
		st.AllTailMS = -1 // JSON has no infinity
	}
	return st, miss
}

// scrape reads the server's /metrics document.
func (s *serveRun) scrape() (fields, error) {
	req, err := http.NewRequestWithContext(s.r.ctx, http.MethodGet, s.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseFields(b), nil
}

// warm sends each base problem once, in order.
func (s *serveRun) warm() {
	for _, call := range s.set.bases {
		var rec reqRecord
		rec.due = time.Now()
		s.do(s.r.ctx, call, &rec, false)
		s.r.attempt(rec.err)
	}
}

// runServeMix: an open-loop client mix against netexplaind's handler
// over loopback.
func runServeMix(r *runner) error {
	// A run is one process, so it sets up serveSetups times in it; the
	// later set-ups find the term interner warm (about 12% faster on the
	// reference host).
	var s *serveRun
	err := r.setup(serveSetups, func() error {
		set, err := buildServeSet(r.ctx, r.cfg.seed, r.cfg.sizes.serveVariants)
		if err != nil {
			return err
		}
		s = newServeRun(r, set)
		return nil
	})
	if err != nil {
		return err
	}
	r.warm(s.start)
	defer s.close()

	// An untraced run offers the measured rate for the whole run. A
	// traced run offers it untraced for half the run, then spends a
	// quarter of the run on each ramp rate.
	seconds := time.Duration(r.cfg.seconds * float64(time.Second))
	measured := seconds
	if r.tr != nil {
		measured = seconds / 2
	}
	m0, err := s.scrape()
	if err != nil {
		return err
	}
	c0, rt0 := cpuTime(), readRuntime()
	recs := s.step(measuredRate, measured, false)
	cpu, rt := cpuTime()-c0, readRuntime().sub(rt0)
	m1, err := s.scrape()
	if err != nil {
		return err
	}
	base, miss := summarize(measuredRate, false, recs)
	base.Server = counterDeltas(m0, m1)
	if len(miss) == 0 {
		return fmt.Errorf("no request reached the engine")
	}
	r.p.MeasuredS += measured.Seconds()
	r.p.LatMS = append(r.p.LatMS, miss...)
	r.p.CPUMS += ms(cpu)
	r.p.Steps = append(r.p.Steps, base)
	if r.tr == nil {
		return nil
	}
	r.recordRuntime(rt, len(miss))
	r.set("server.hit_p50_ms", base.HitP50MS, base.Hits)
	return s.traced(seconds/4, miss)
}

// serverCounters are the /metrics counters a step records the change
// of, under "server".
var serverCounters = []string{
	"response_cache_hits", "response_cache_misses", "response_cache_evictions",
	"pool.hits", "pool.misses", "pool.evictions", "rejected",
}

// counterDeltas returns how far each server counter moved between two
// scrapes; a counter /metrics no longer has is left out.
func counterDeltas(m0, m1 fields) map[string]float64 {
	d := map[string]float64{}
	for _, name := range serverCounters {
		a, okA := m1.num("server." + name)
		b, okB := m0.num("server." + name)
		if okA && okB {
			d[name] = a - b
		}
	}
	return d
}

// traced offers the stepped rates with request phases traced, each on
// a fresh server so that every step starts the same request sequence
// with the same caches, and sums how far the servers' counters moved.
// It then checks that cache hits do no engine work.
func (s *serveRun) traced(stepDur time.Duration, untracedMiss []float64) error {
	r := s.r
	var tracedMiss, service, wait []float64
	var eng engineSum
	total := map[string]float64{}
	missing := false
	maxRate, lateMax := 0.0, 0.0
	for _, rate := range rampRates {
		s.start()
		m0, err := s.scrape()
		if err != nil {
			return err
		}
		recs := s.step(rate, stepDur, true)
		m1, err := s.scrape()
		if err != nil {
			return err
		}
		st, _ := summarize(rate, true, recs)
		st.Server = counterDeltas(m0, m1)
		r.p.Steps = append(r.p.Steps, st)
		for _, name := range serverCounters {
			v, ok := st.Server[name]
			total[name] += v
			missing = missing || !ok
		}
		lateMax = max(lateMax, st.LateMaxMS)
		if st.Sustained {
			maxRate = rate
		}
		misses := 0
		for i := range recs {
			rec := &recs[i]
			r.tr.add(span{Op: rec.id, Name: "http.request", StartNS: r.tr.at(rec.due), EndNS: r.tr.at(rec.done),
				Attrs: map[string]float64{"hit": b2f(rec.hit), "failed": b2f(rec.err != nil), "conn_wait_ms": ms(rec.connWait), "service_ms": ms(rec.service), "late_ms": ms(rec.sent.Sub(rec.due))}})
			if rec.err != nil {
				continue
			}
			wait = append(wait, ms(rec.connWait))
			if !rec.hit {
				misses++
				service = append(service, ms(rec.service))
				if rate == measuredRate {
					tracedMiss = append(tracedMiss, rec.latencyMS())
				}
			}
		}
		if misses > 0 {
			eng.add(engineOf(m0), engineOf(m1), false, misses)
		}
	}
	ok := !missing
	share := func(a, b string) float64 {
		if x, y := total[a], total[b]; x+y > 0 {
			return x / (x + y)
		}
		return 0
	}
	n := len(service)
	r.setIf("server.response_cache_hit_share", share("response_cache_hits", "response_cache_misses"), n, ok)
	r.setIf("server.pool_hit_share", share("pool.hits", "pool.misses"), n, ok)
	r.setIf("server.response_cache_evictions", total["response_cache_evictions"], n, ok)
	r.setIf("server.pool_evictions", total["pool.evictions"], n, ok)
	r.setIf("server.rejected", total["rejected"], n, ok)
	r.set("server.miss_service_p50_ms", median(service), n)
	r.set("loadgen.conn_wait_p50_ms", median(wait), len(wait))
	r.set("loadgen.late_max_ms", lateMax, len(rampRates))
	r.set("loadgen.max_rate_rps", maxRate, len(rampRates))
	r.recordOverhead(untracedMiss, tracedMiss)
	eng.record(r)
	return s.hitProbe()
}

// engineOf returns the /metrics document's engine.Stats section.
func engineOf(m fields) fields {
	e, _ := m["engine"].(map[string]any)
	return fields(e)
}

// hitProbe sends repeat explains of the cached base problems one at a
// time and sums how far every engine counter moved: a cache hit should
// do no engine work, so the sum should be 0.
func (s *serveRun) hitProbe() error {
	m0, err := s.scrape()
	if err != nil {
		return err
	}
	const probes = 10
	for i := 0; i < probes; i++ {
		rec := reqRecord{due: time.Now()}
		s.do(s.r.ctx, s.set.bases[i%len(s.set.bases)], &rec, false)
		s.r.attempt(rec.err)
		if rec.err == nil && !rec.hit {
			return fmt.Errorf("hit probe: a cached base problem missed the response cache")
		}
	}
	m1, err := s.scrape()
	if err != nil {
		return err
	}
	before, after := engineOf(m0), engineOf(m1)
	moved, ok := 0.0, len(after) > 0
	for k := range after {
		a, okA := after.num(k)
		b, okB := before.num(k)
		if okA && okB {
			moved += math.Abs(a - b)
		}
	}
	s.r.setIf("server.hit_engine_delta", moved, probes, ok)
	return nil
}
