package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// problemTexts renders scenario1's problem in the wire formats, plus
// an edited variant for diff requests.
func problemTexts(t *testing.T) (topo, configs, spc, edited string) {
	t.Helper()
	return scenarioTexts(t, scenarios.Scenario1())
}

// scenarioTexts renders a scenario's problem in the wire formats, plus
// an edited variant (netgen.Perturb, seed 1, one edit) for diff
// requests.
func scenarioTexts(t *testing.T, sc *scenarios.Scenario) (topo, configs, spc, edited string) {
	t.Helper()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	editedDep, edits := netgen.Perturb(res.Deployment, 1, 1)
	if len(edits) == 0 {
		t.Fatal("no edit sites")
	}
	return topology.Print(sc.Net), config.PrintDeployment(res.Deployment),
		spec.Print(sc.Spec), config.PrintDeployment(editedDep)
}

// wantReport renders the ground-truth report for the given problem
// texts through the same core API the netexplain CLI prints verbatim.
func wantReport(t *testing.T, topo, configs, spc string) string {
	t.Helper()
	net, err := topology.Parse(topo)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := config.ParseDeployment(configs)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(spc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewExplainer(net, sp.Requirements(), dep, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func post(t *testing.T, h http.Handler, path string, req request) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decodeExplain(t *testing.T, w *httptest.ResponseRecorder) explainResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	var resp explainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerExplainServesAndCaches(t *testing.T) {
	topo, configs, spc, _ := problemTexts(t)
	want := wantReport(t, topo, configs, spc)
	s := New(Options{})
	h := s.Handler()
	req := request{Topology: topo, Configs: configs, Spec: spc}

	w1 := post(t, h, "/explain", req)
	if got := decodeExplain(t, w1).Report; got != want {
		t.Fatalf("served report diverges from direct core report\n-- served --\n%s\n-- want --\n%s", got, want)
	}
	if hc := w1.Header().Get("X-Cache"); hc != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", hc)
	}

	// The identical request is served verbatim from the response cache.
	w2 := post(t, h, "/explain", req)
	if hc := w2.Header().Get("X-Cache"); hc != "hit" {
		t.Fatalf("repeat request X-Cache = %q, want hit", hc)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cached body differs from the original response")
	}

	// The timeout is excluded from the cache key: the same problem under
	// a different deadline is still a hit (it never changes a byte).
	w3 := post(t, h, "/explain", request{Topology: topo, Configs: configs, Spec: spc, TimeoutMS: 60000})
	if hc := w3.Header().Get("X-Cache"); hc != "hit" {
		t.Fatalf("knob-varied request X-Cache = %q, want hit", hc)
	}

	// But nolift changes the report and must miss.
	w4 := post(t, h, "/explain", request{Topology: topo, Configs: configs, Spec: spc, NoLift: true})
	if hc := w4.Header().Get("X-Cache"); hc != "miss" {
		t.Fatalf("nolift request X-Cache = %q, want miss", hc)
	}
	if decodeExplain(t, w4).Report == want {
		t.Fatal("nolift report identical to lifted report")
	}

	m := s.Snapshot()
	if m.Server.ResponseCacheHits != 2 || m.Server.ResponseCacheMisses != 2 {
		t.Fatalf("response cache hits/misses = %d/%d, want 2/2",
			m.Server.ResponseCacheHits, m.Server.ResponseCacheMisses)
	}
	if m.Server.Pool.Leased != 0 {
		t.Fatalf("pool leased = %d at quiescence, want 0", m.Server.Pool.Leased)
	}
	if m.Engine.Encodes == 0 || m.Engine.Solves == 0 {
		t.Fatalf("engine stats empty after serving: %+v", m.Engine)
	}
}

// TestServerLiftSharesPooledSession pins that the session pool is keyed
// by the problem alone: a nolift /explain and then a lifted /explain of
// the same problem run on one pooled session (the second request is a
// pool hit, and the server records one base encode), and the lifted
// body equals a fresh server's.
func TestServerLiftSharesPooledSession(t *testing.T) {
	topo, configs, spc, _ := problemTexts(t)
	lifted := request{Topology: topo, Configs: configs, Spec: spc}
	unlifted := lifted
	unlifted.NoLift = true

	s := New(Options{})
	h := s.Handler()
	decodeExplain(t, post(t, h, "/explain", unlifted))
	w := post(t, h, "/explain", lifted)
	decodeExplain(t, w)
	if g := s.pool.Gauges(); g.Hits != 1 || g.Misses != 1 || g.Idle != 1 {
		t.Fatalf("pool hits/misses/idle = %d/%d/%d, want 1/1/1", g.Hits, g.Misses, g.Idle)
	}
	if n := s.Snapshot().Engine.BaseEncodes; n != 1 {
		t.Fatalf("%d base encodes, want the one shared session's", n)
	}
	fresh := post(t, New(Options{}).Handler(), "/explain", lifted)
	if !bytes.Equal(w.Body.Bytes(), fresh.Body.Bytes()) {
		t.Fatalf("lifted body after a nolift request on the pooled session differs from a fresh server's\n-- pooled --\n%s\n-- fresh --\n%s",
			w.Body.String(), fresh.Body.String())
	}
}

// TestServerIgnoresRetiredSatWorkers pins compatibility with clients
// that still send a retired knob (sat_workers, lift_workers): the
// decoder ignores unknown fields, so such a request is served like the
// plain one and shares its response-cache entry.
func TestServerIgnoresRetiredSatWorkers(t *testing.T) {
	topo, configs, spc, _ := problemTexts(t)
	want := wantReport(t, topo, configs, spc)
	for _, knob := range []struct {
		name  string
		value int
	}{{"sat_workers", 4}, {"lift_workers", 2}} {
		h := New(Options{}).Handler()
		legacy, err := json.Marshal(map[string]any{"topology": topo, "configs": configs, "spec": spc, knob.name: knob.value})
		if err != nil {
			t.Fatal(err)
		}
		postLegacy := func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/explain", bytes.NewReader(legacy)))
			return w
		}

		w1 := postLegacy()
		if got := decodeExplain(t, w1).Report; got != want {
			t.Fatalf("report for a request carrying %s diverges\n-- served --\n%s\n-- want --\n%s", knob.name, got, want)
		}
		w2 := postLegacy()
		if hc := w2.Header().Get("X-Cache"); hc != "hit" {
			t.Fatalf("repeated %s request X-Cache = %q, want hit", knob.name, hc)
		}
		if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
			t.Fatalf("%s: cached body differs from the original response", knob.name)
		}
		w3 := post(t, h, "/explain", request{Topology: topo, Configs: configs, Spec: spc})
		if hc := w3.Header().Get("X-Cache"); hc != "hit" || !bytes.Equal(w3.Body.Bytes(), w1.Body.Bytes()) {
			t.Fatalf("after %s: plain request X-Cache = %q or body differs; want a hit on the same bytes", knob.name, hc)
		}
	}
}

func TestServerDiffMatchesColdReport(t *testing.T) {
	topo, configs, spc, edited := problemTexts(t)
	want := wantReport(t, topo, edited, spc)
	s := New(Options{})
	h := s.Handler()

	w := post(t, h, "/diff", request{Topology: topo, Configs: configs, Spec: spc, EditedConfigs: edited})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	var resp diffResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report != want {
		t.Fatalf("diff report diverges from cold report of the edited problem\n-- served --\n%s\n-- want --\n%s", resp.Report, want)
	}
	if !strings.Contains(resp.Summary, "WHAT-IF DELTA SUMMARY") {
		t.Fatalf("malformed summary:\n%s", resp.Summary)
	}
	if resp.Stats.Routers == 0 {
		t.Fatal("diff stats empty")
	}

	// The diff retargeted and pooled the explainer under the edited
	// problem: a follow-up /explain of the edited problem is a pool hit.
	w2 := post(t, h, "/explain", request{Topology: topo, Configs: edited, Spec: spc})
	if got := decodeExplain(t, w2).Report; got != want {
		t.Fatal("follow-up explain of the edited problem diverges")
	}
	g := s.pool.Gauges()
	if g.Hits == 0 {
		t.Fatalf("follow-up explain missed the session pool: %+v", g)
	}
	if g.Leased != 0 {
		t.Fatalf("pool leased = %d at quiescence, want 0", g.Leased)
	}
}

func TestServerBadRequests(t *testing.T) {
	topo, configs, spc, _ := problemTexts(t)
	s := New(Options{})
	h := s.Handler()
	cases := []struct {
		name string
		path string
		req  request
	}{
		{"missing topology", "/explain", request{Configs: configs, Spec: spc}},
		{"missing configs", "/explain", request{Topology: topo, Spec: spc}},
		{"missing spec", "/explain", request{Topology: topo, Configs: configs}},
		{"bad topology", "/explain", request{Topology: "not a topology", Configs: configs, Spec: spc}},
		{"bad configs", "/explain", request{Topology: topo, Configs: "router bgp bogus", Spec: spc}},
		{"diff without edit", "/diff", request{Topology: topo, Configs: configs, Spec: spc}},
	}
	for _, tc := range cases {
		if w := post(t, h, tc.path, tc.req); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body: %s)", tc.name, w.Code, w.Body.String())
		}
	}
	if w := get(h, "/explain"); w.Code != http.StatusBadRequest {
		t.Errorf("GET /explain: status = %d, want 400", w.Code)
	}
	if w := get(h, "/healthz"); w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q", w.Code, w.Body.String())
	}
	if m := s.Snapshot(); m.Server.BadRequests != len(cases)+1 {
		t.Errorf("BadRequests = %d, want %d", m.Server.BadRequests, len(cases)+1)
	}
	// Failed requests leak no leases.
	if g := s.pool.Gauges(); g.Leased != 0 {
		t.Errorf("pool leased = %d after bad requests, want 0", g.Leased)
	}
}

// TestServerDiffRejectsHoles sends /diff edits that leave a hole in the
// edited deployment, a bare "?" and a named one. Either is a client
// error, answered with a 400 before any session is leased.
func TestServerDiffRejectsHoles(t *testing.T) {
	topo, configs, spc, _ := problemTexts(t)
	const clause = "route-map R1_to_P1 deny 10"
	if !strings.Contains(configs, clause) {
		t.Fatalf("scenario1 configs lack %q", clause)
	}
	s := New(Options{})
	h := s.Handler()
	for _, action := range []string{"?", "?h"} {
		edited := strings.Replace(configs, clause, "route-map R1_to_P1 "+action+" 10", 1)
		w := post(t, h, "/diff", request{Topology: topo, Configs: configs, Spec: spc, EditedConfigs: edited})
		if w.Code != http.StatusBadRequest {
			t.Errorf("action %q: status = %d, want 400 (body: %s)", action, w.Code, w.Body.String())
		}
	}
	if g := s.pool.Gauges(); g.Hits+g.Misses != 0 {
		t.Errorf("pool hits/misses = %d/%d, want no lease", g.Hits, g.Misses)
	}
}

// TestServerHandlerPanicReleasesLease injects a panic on the handler
// goroutine after the query has leased its explainer. The client must
// get a 500, the lease must be closed (leased back at 0 in /metrics)
// without re-pooling the interrupted session, and the next request must
// be served normally.
func TestServerHandlerPanicReleasesLease(t *testing.T) {
	topo, configs, spc, edited := problemTexts(t)
	want := wantReport(t, topo, configs, spc)
	s := New(Options{})
	h := s.Handler()
	t.Cleanup(func() { testAfterLease = nil })

	cases := []struct {
		name string
		path string
		req  request
	}{
		{"explain", "/explain", request{Topology: topo, Configs: configs, Spec: spc}},
		{"stream", "/explain", request{Topology: topo, Configs: configs, Spec: spc, Stream: true}},
		{"diff", "/diff", request{Topology: topo, Configs: configs, Spec: spc, EditedConfigs: edited}},
	}
	for i, tc := range cases {
		testAfterLease = func() { panic("injected handler panic") }
		w := post(t, h, tc.path, tc.req)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status = %d, want 500 (body: %s)", tc.name, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), "injected handler panic") {
			t.Errorf("%s: error body %q does not name the panic", tc.name, w.Body.String())
		}
		var m Metrics
		if err := json.Unmarshal(get(h, "/metrics").Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m.Server.Pool.Leased != 0 || m.Server.Pool.Idle != 0 {
			t.Fatalf("%s: after the panic leased = %d, idle = %d; want 0, 0",
				tc.name, m.Server.Pool.Leased, m.Server.Pool.Idle)
		}
		if m.Server.Errors != i+1 {
			t.Errorf("%s: errors = %d, want %d", tc.name, m.Server.Errors, i+1)
		}
	}

	testAfterLease = nil
	if got := decodeExplain(t, post(t, h, "/explain", cases[0].req)); got.Report != want {
		t.Fatal("request after the panics: report differs from the cold ground truth")
	}
	if g := s.pool.Gauges(); g.Leased != 0 || g.Idle != 1 {
		t.Fatalf("after a served request leased = %d, idle = %d; want 0, 1", g.Leased, g.Idle)
	}
}

// TestServerConcurrentMixedTraffic is the -race pin for the serving
// layer: goroutines hammer one server with mixed explain, diff,
// repeat (cache-hitting), and pre-cancelled requests for the three
// scenarios, one more problem than its pool holds. Every 200 response
// must be byte-identical to the single-threaded ground truth, and the
// pool must return to idle with no leaked leases.
func TestServerConcurrentMixedTraffic(t *testing.T) {
	type problem struct {
		topo, configs, spc, edited string
		wantBase, wantEdited       string
	}
	var problems []problem
	for _, sc := range scenarios.All() {
		topo, configs, spc, edited := scenarioTexts(t, sc)
		problems = append(problems, problem{topo, configs, spc, edited,
			wantReport(t, topo, configs, spc), wantReport(t, topo, edited, spc)})
	}
	s := New(Options{MaxInflight: 4, PoolSize: 2})
	h := s.Handler()

	// Goroutine g sends problem g%3 the four request kinds in turn, so
	// every scenario sees every kind and repeats its base explain.
	const goroutines = 8
	const iters = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := problems[g%len(problems)]
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0: // explain base
					w := post(t, h, "/explain", request{Topology: p.topo, Configs: p.configs, Spec: p.spc})
					if w.Code != http.StatusOK {
						t.Errorf("g%d i%d explain: %d %s", g, i, w.Code, w.Body.String())
						return
					}
					var resp explainResponse
					json.Unmarshal(w.Body.Bytes(), &resp)
					if resp.Report != p.wantBase {
						t.Errorf("g%d i%d: base report diverged under concurrency", g, i)
					}
				case 1: // diff base -> edited
					w := post(t, h, "/diff", request{Topology: p.topo, Configs: p.configs, Spec: p.spc, EditedConfigs: p.edited})
					if w.Code != http.StatusOK {
						t.Errorf("g%d i%d diff: %d %s", g, i, w.Code, w.Body.String())
						return
					}
					var resp diffResponse
					json.Unmarshal(w.Body.Bytes(), &resp)
					if resp.Report != p.wantEdited {
						t.Errorf("g%d i%d: diff report diverged under concurrency", g, i)
					}
				case 2: // explain edited
					w := post(t, h, "/explain", request{Topology: p.topo, Configs: p.edited, Spec: p.spc})
					if w.Code != http.StatusOK {
						t.Errorf("g%d i%d explain edited: %d %s", g, i, w.Code, w.Body.String())
						return
					}
					var resp explainResponse
					json.Unmarshal(w.Body.Bytes(), &resp)
					if resp.Report != p.wantEdited {
						t.Errorf("g%d i%d: edited report diverged under concurrency", g, i)
					}
				case 3: // pre-cancelled request: must fail fast, leak nothing
					body, _ := json.Marshal(request{Topology: p.topo, Configs: p.configs, Spec: p.spc})
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					r := httptest.NewRequest(http.MethodPost, "/explain", bytes.NewReader(body)).WithContext(ctx)
					w := httptest.NewRecorder()
					h.ServeHTTP(w, r)
					// Either served from cache (200) or aborted — never a hang.
				}
			}
		}(g)
	}
	wg.Wait()

	g := s.pool.Gauges()
	if g.Leased != 0 {
		t.Fatalf("pool leased = %d after traffic, want 0 (leaked lease)", g.Leased)
	}
	if len(s.sem) != 0 {
		t.Fatalf("inflight = %d after traffic, want 0", len(s.sem))
	}
	m := s.Snapshot()
	if m.Server.ResponseCacheHits == 0 {
		t.Fatal("no response-cache hits under repeated identical traffic")
	}

	// Metrics scrapes at quiescence are byte-stable.
	m1 := get(h, "/metrics").Body.String()
	m2 := get(h, "/metrics").Body.String()
	if m1 != m2 {
		t.Fatalf("metrics not byte-stable at quiescence:\n-- 1 --\n%s\n-- 2 --\n%s", m1, m2)
	}
}

// TestMetricsDeterministic pins the /metrics wire format with a golden
// body for a fresh server: fixed struct fields in declaration order,
// no maps, no timestamps. If this test fails after an intentional
// field addition, update the golden.
func TestMetricsDeterministic(t *testing.T) {
	s := New(Options{})
	w := get(s.Handler(), "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	var m Metrics
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	golden := `{
  "server": {
    "requests": 0,
    "explain_requests": 0,
    "diff_requests": 0,
    "bad_requests": 0,
    "errors": 0,
    "rejected": 0,
    "inflight": 0,
    "response_cache_hits": 0,
    "response_cache_misses": 0,
    "response_cache_entries": 0,
    "response_cache_evictions": 0,
    "pool": {
      "idle": 0,
      "leased": 0,
      "hits": 0,
      "misses": 0,
      "evictions": 0
    }
  },
  "engine": ` + goldenEngineJSON() + `
}
`
	if got := w.Body.String(); got != golden {
		t.Fatalf("metrics golden mismatch:\n-- got --\n%s\n-- want --\n%s", got, golden)
	}
}

// goldenEngineJSON renders the all-zero engine.Stats the way the
// metrics encoder nests it (two-space indent at depth 1). Deriving it
// from the struct keeps the golden in lockstep with intentional
// engine.Stats field additions while still pinning order and shape —
// any map-backed or otherwise order-unstable field would break the
// byte-for-byte scrape comparison in TestServerConcurrentMixedTraffic.
func goldenEngineJSON() string {
	b, err := json.MarshalIndent(engine.Stats{}, "  ", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

// medRetune stages the canonical model-invisible edit on a deployment
// text: medAdded gives the first route-map clause of the first router
// (sorted) a MED line, medRetuned changes only that line's value.
func medRetune(t *testing.T, configs string) (medAdded, medRetuned string) {
	t.Helper()
	withMED := func(med int) string {
		dep, err := config.ParseDeployment(configs)
		if err != nil {
			t.Fatal(err)
		}
		routers := make([]string, 0, len(dep))
		for r := range dep {
			routers = append(routers, r)
		}
		sort.Strings(routers)
		for _, r := range routers {
			for _, name := range dep[r].RouteMapNames() {
				if cls := dep[r].RouteMaps[name].Clauses; len(cls) > 0 {
					cls[0].Sets = append(cls[0].Sets, &config.Set{Kind: config.SetMED, MED: med})
					return config.PrintDeployment(dep)
				}
			}
		}
		t.Fatal("no route-map clause to give a MED line")
		return ""
	}
	return withMED(10), withMED(25)
}

// TestServerRejectedProblem: a problem the encoder rejects (a
// requirement that names a router the topology lacks, in an allow or
// in a forbid) fails the session's base, which the report builds
// before its first byte, so /explain answers 400 with the error alone
// in JSON and in stream mode, and so does a /diff from it, whose base
// report builds that base; no lease stays held.
func TestServerRejectedProblem(t *testing.T) {
	topo, configs, spc, edited := problemTexts(t)
	for _, tc := range []struct{ name, spec string }{
		{"allow", strings.Replace(spc, "!(P1->...->P2)", "+(P1->...->Z9)\n    !(P1->...->P2)", 1)},
		{"forbid", strings.ReplaceAll(spc, "P1", "Z9")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(tc.spec, "Z9") {
				t.Fatal("the spec has no P1 to rename")
			}
			s := New(Options{})
			h := s.Handler()
			for _, q := range []struct {
				name, path string
				req        request
			}{
				{"explain", "/explain", request{Topology: topo, Configs: configs, Spec: tc.spec}},
				{"stream", "/explain", request{Topology: topo, Configs: configs, Spec: tc.spec, Stream: true}},
				{"diff", "/diff", request{Topology: topo, Configs: configs, Spec: tc.spec, EditedConfigs: edited}},
			} {
				w := post(t, h, q.path, q.req)
				if w.Code != http.StatusBadRequest {
					t.Fatalf("%s: status = %d, want 400 (body: %s)", q.name, w.Code, w.Body.String())
				}
				var er errorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "Z9") {
					t.Fatalf("%s: body is not the error alone, naming Z9 (%v): %s", q.name, err, w.Body.String())
				}
				if g := s.pool.Gauges(); g.Leased != 0 {
					t.Fatalf("%s: pool leased = %d after the rejected problem, want 0", q.name, g.Leased)
				}
			}
		})
	}
}

// TestMetricsCountersSurviveDiff pins the accounting of a /diff, which
// hands the pooled explainer a successor session: the predecessor's
// work must stay in /metrics. Across /explain → /diff → /explain, both
// for a diff that takes the what-if fast path and for one the encoding
// sees, no engine flow counter may fall, and BaseEncodes must equal the
// number of sessions built — one per pool miss plus one per diff — less
// those whose base no query has needed: a fast-path diff's successor
// builds none, in the all-hit sweep or at the follow-up /explain, whose
// sections all come from the report cache too, so BaseEncodes stays 1.
func TestMetricsCountersSurviveDiff(t *testing.T) {
	topo, configs, spc, edited := problemTexts(t)
	medAdded, medRetuned := medRetune(t, configs)
	// Gauges may fall; every other field is a flow.
	gauges := map[string]bool{"ReportCacheBytes": true, "NormCacheEntries": true,
		"LiftP50": true, "LiftP95": true}
	for _, tc := range []struct {
		name         string
		base, edited string
		fastPath     bool
	}{
		{"fast path", medAdded, medRetuned, true},
		{"visible edit", configs, edited, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{})
			h := s.Handler()
			var prev engine.Stats
			check := func(step string, unbuilt int) {
				t.Helper()
				m := s.Snapshot()
				got, old := reflect.ValueOf(m.Engine), reflect.ValueOf(prev)
				for i := 0; i < got.NumField(); i++ {
					name := got.Type().Field(i).Name
					if gauges[name] {
						continue
					}
					g, o := got.Field(i), old.Field(i)
					if g.Kind() == reflect.Array {
						for j := 0; j < g.Len(); j++ {
							if g.Index(j).Uint() < o.Index(j).Uint() {
								t.Errorf("%s: %s[%d] fell from %d to %d", step, name, j, o.Index(j).Uint(), g.Index(j).Uint())
							}
						}
						continue
					}
					if fell := (g.CanInt() && g.Int() < o.Int()) || (g.CanUint() && g.Uint() < o.Uint()); fell {
						t.Errorf("%s: %s fell from %v to %v", step, name, o.Interface(), g.Interface())
					}
				}
				if built := m.Server.Pool.Misses + m.Server.DiffRequests - unbuilt; m.Engine.BaseEncodes != built {
					t.Errorf("%s: BaseEncodes = %d, want %d (sessions whose base a query needed)", step, m.Engine.BaseEncodes, built)
				}
				prev = m.Engine
			}

			decodeExplain(t, post(t, h, "/explain", request{Topology: topo, Configs: tc.base, Spec: spc}))
			check("explain", 0)
			w := post(t, h, "/diff", request{Topology: topo, Configs: tc.base, Spec: spc, EditedConfigs: tc.edited})
			if w.Code != http.StatusOK {
				t.Fatalf("diff status = %d, body: %s", w.Code, w.Body.String())
			}
			var dr diffResponse
			if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
				t.Fatal(err)
			}
			if dr.Stats.FastPath != tc.fastPath {
				t.Fatalf("diff FastPath = %v, want %v", dr.Stats.FastPath, tc.fastPath)
			}
			unbuilt := 0
			if tc.fastPath {
				unbuilt = 1
			}
			check("diff", unbuilt)
			decodeExplain(t, post(t, h, "/explain", request{Topology: topo, Configs: tc.edited, Spec: spc}))
			check("explain of the edited problem", unbuilt)
			if g := s.pool.Gauges(); g.Hits != 2 || g.Misses != 1 {
				t.Errorf("pool hits/misses = %d/%d, want 2/1 (the diff and the follow-up reuse the warm explainer)", g.Hits, g.Misses)
			}
		})
	}
}

// TestServerExplainStream pins the streaming mode: the text/plain body
// is exactly the JSON response's report field, and a repeat request is
// served from the response cache with the streaming content type.
func TestServerExplainStream(t *testing.T) {
	topo, configs, spc, _ := problemTexts(t)
	want := wantReport(t, topo, configs, spc)
	s := New(Options{})
	h := s.Handler()
	req := request{Topology: topo, Configs: configs, Spec: spc, Stream: true}

	w := post(t, h, "/explain", req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	if got := w.Body.String(); got != want {
		t.Errorf("streamed body differs from report:\n%s", got)
	}
	if w.Header().Get("X-Cache") != "miss" {
		t.Errorf("first stream X-Cache = %q, want miss", w.Header().Get("X-Cache"))
	}
	if !w.Flushed {
		t.Error("streamed response was never flushed")
	}

	w = post(t, h, "/explain", req)
	if w.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat stream X-Cache = %q, want hit", w.Header().Get("X-Cache"))
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("cached stream Content-Type = %q, want text/plain", ct)
	}
	if got := w.Body.String(); got != want {
		t.Error("cached streamed body differs")
	}

	// The JSON and streamed variants are cached under distinct keys:
	// a JSON request after a streamed one is a cache miss that still
	// returns the same report.
	jw := post(t, h, "/explain", request{Topology: topo, Configs: configs, Spec: spc})
	if got := decodeExplain(t, jw).Report; got != want {
		t.Error("JSON report differs from streamed report")
	}
	if jw.Header().Get("X-Cache") != "miss" {
		t.Errorf("JSON after stream X-Cache = %q, want miss (distinct cache keys)", jw.Header().Get("X-Cache"))
	}
}

// TestServerStreamError pins mid-stream failure behavior: a deadline
// that expires after the first section aborts the connection rather
// than appending a partial section or a misleading status.
func TestServerStreamError(t *testing.T) {
	topo, configs, spc, _ := problemTexts(t)
	s := New(Options{})
	h := s.Handler()

	// An immediately-cancelled request context fails before the first
	// byte: a clean JSON error, not an abort.
	body, err := json.Marshal(request{Topology: topo, Configs: configs, Spec: spc, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := httptest.NewRecorder()
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("pre-byte failure panicked: %v", r)
			}
		}()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/explain", bytes.NewReader(body)).WithContext(ctx))
	}()
	if w.Code == http.StatusOK {
		t.Fatalf("cancelled stream returned 200, body: %s", w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("pre-byte failure Content-Type = %q, want JSON error", ct)
	}
}
