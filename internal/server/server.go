// Package server implements netexplaind's HTTP serving layer: a JSON
// API over the explanation pipeline, backed by a pool of warm
// engine.Sessions, a content-addressed response cache, and admission
// control that maps per-request deadlines onto the query's context.
//
// Endpoints:
//
//	POST /explain  {topology, configs, spec, ...}          → {"report": ...}
//	POST /explain  {..., "stream": true}                    → text/plain report, sections flushed as explained
//	POST /diff     {topology, configs, edited_configs, ...} → {"report", "summary", "stats"}
//	GET  /metrics  engine.Stats + server counters as JSON (byte-stable)
//	GET  /healthz  liveness probe
//
// Request texts are the same formats the CLIs consume
// (topology.Parse, config.ParseDeployment, spec.Parse), and a served
// report is byte-identical to `netexplain -all` over the same inputs:
// the response cache can therefore ignore the timeout, which never
// changes a report byte.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/spec"
	"repro/internal/topology"
)

// Options configures a Server. The zero value of each field selects
// the documented default.
type Options struct {
	// MaxInflight caps concurrently admitted explain/diff requests
	// (default 4× GOMAXPROCS is the caller's business — the server
	// defaults to 16). Requests beyond the cap queue; a request whose
	// context ends while queued is turned away with 503.
	MaxInflight int
	// ResponseCacheSize caps the content-addressed response cache
	// (default 256 entries, 0 < n; negative disables caching).
	ResponseCacheSize int
	// PoolSize caps the session pool (default 16 idle problems).
	PoolSize int
	// DefaultTimeout is the per-request deadline when the request sets
	// none (default 2m). MaxTimeout clamps requested deadlines
	// (default: DefaultTimeout).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// VerifyProofs turns on proof verification for every served query.
	VerifyProofs bool
}

// sessionReportBytes caps every pooled session's report cache by the
// bytes of its keys and sections. A served session lives for hours, so
// unlike the CLI's it cannot keep every report section it ever
// rendered.
const sessionReportBytes = 64 << 20

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.MaxInflight == 0 {
		o.MaxInflight = 16
	}
	if o.ResponseCacheSize == 0 {
		o.ResponseCacheSize = 256
	}
	if o.PoolSize == 0 {
		o.PoolSize = 16
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = o.DefaultTimeout
	}
	return o
}

// Server is the netexplaind request handler. Create with New; serve
// via Handler.
type Server struct {
	opts Options
	pool *engine.SessionPool
	sem  chan struct{}
	// resp is the content-addressed response cache, one cost unit per
	// body. With caching disabled nothing is stored in it, so every
	// lookup still counts its miss.
	resp *lru.Cache[string, []byte]

	ctrMu sync.Mutex
	ctr   counters
}

// counters are the server-level request metrics (the response cache
// and the session pool keep their own).
type counters struct {
	Requests        int
	ExplainRequests int
	DiffRequests    int
	BadRequests     int
	Errors          int
	Rejected        int
}

// New creates a server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts: opts,
		pool: engine.NewSessionPool(opts.PoolSize),
		sem:  make(chan struct{}, opts.MaxInflight),
		resp: lru.New[string, []byte](int64(opts.ResponseCacheSize), nil),
	}
}

// Handler returns the server's routed handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, false) })
	mux.HandleFunc("/diff", func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, true) })
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// request is the JSON body of /explain and /diff.
type request struct {
	// Topology, Configs, and Spec are the problem texts (topology.Parse,
	// config.ParseDeployment, spec.Parse formats).
	Topology string `json:"topology"`
	Configs  string `json:"configs"`
	Spec     string `json:"spec"`
	// EditedConfigs (diff only) is the edited deployment text; the
	// report explains it, incrementally against the base problem.
	EditedConfigs string `json:"edited_configs,omitempty"`
	// TimeoutMS bounds the request's wall clock (0 = server default,
	// clamped to the server max).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoLift skips subspecification lifting (reports show sizes only).
	NoLift bool `json:"nolift,omitempty"`
	// Stream (explain only) streams the report as text/plain instead of
	// a JSON envelope: router sections are flushed to the client in
	// order as the worker pool completes them, so wide networks produce
	// output long before the last router is explained. The bytes are
	// exactly the JSON response's report field. A failure after the
	// first byte aborts the connection (the status line is already
	// committed); the client has received whole sections only. Ignored
	// on /diff.
	Stream bool `json:"stream,omitempty"`
}

// explainResponse is the /explain response body.
type explainResponse struct {
	Report string `json:"report"`
}

// diffResponse is the /diff response body.
type diffResponse struct {
	Report  string         `json:"report"`
	Summary string         `json:"summary"`
	Stats   core.DiffStats `json:"stats"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) failRequest(w http.ResponseWriter, status int, err error) {
	s.ctrMu.Lock()
	if status == http.StatusBadRequest {
		s.ctr.BadRequests++
	} else if status == http.StatusServiceUnavailable {
		s.ctr.Rejected++
	} else {
		s.ctr.Errors++
	}
	s.ctrMu.Unlock()
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// cacheKey content-addresses a request: endpoint plus every byte that
// can influence the response body. The timeout is deliberately
// excluded: it decides whether a report arrives, never its bytes.
func cacheKey(endpoint string, req *request) string {
	h := sha256.New()
	for _, part := range []string{endpoint, req.Topology, req.Configs, req.Spec, req.EditedConfigs, fmt.Sprintf("lift=%t,stream=%t", !req.NoLift, req.Stream)} {
		fmt.Fprintf(h, "%d:", len(part))
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// problemKey names the problem a warm session is valid for: the
// normalized (parse→print round-tripped) problem texts. The lift flag
// is not part of it: it is set on the explainer per request, and every
// report section's cache key carries the lift options, so one pooled
// session serves lifted and unlifted requests alike.
func problemKey(net *topology.Network, dep config.Deployment, sp *spec.Spec) string {
	h := sha256.New()
	for _, part := range []string{topology.Print(net), config.PrintDeployment(dep), spec.Print(sp)} {
		fmt.Fprintf(h, "%d:", len(part))
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// storeResponse caches a successful response body, unless caching is
// disabled (a negative ResponseCacheSize).
func (s *Server) storeResponse(key string, body []byte) {
	if s.opts.ResponseCacheSize > 0 {
		s.resp.Put(key, body, 1)
	}
}

// admit blocks until an in-flight slot frees up or the context ends.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server at capacity: %w", ctx.Err())
	}
}

// timeoutFor clamps the request's timeout against the server limit.
func (s *Server) timeoutFor(req *request) time.Duration {
	d := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}

// parseProblem parses the three problem texts.
func parseProblem(req *request) (*topology.Network, config.Deployment, *spec.Spec, error) {
	net, err := topology.Parse(req.Topology)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("topology: %w", err)
	}
	dep, err := config.ParseDeployment(req.Configs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("configs: %w", err)
	}
	sp, err := spec.Parse(req.Spec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spec: %w", err)
	}
	if err := depMatchesNet(net, dep); err != nil {
		return nil, nil, nil, fmt.Errorf("configs: %w", err)
	}
	return net, dep, sp, nil
}

// depMatchesNet rejects configurations for routers the topology does
// not declare — a malformed problem, caught before any engine work.
func depMatchesNet(net *topology.Network, dep config.Deployment) error {
	for name := range dep {
		if net.Router(name) == nil {
			return fmt.Errorf("config for router %q not in the topology", name)
		}
	}
	return nil
}

// depConcrete rejects a deployment with holes: an edit must be a
// concrete deployment to be explained.
func depConcrete(dep config.Deployment) error {
	for name, c := range dep {
		if !c.Concrete() {
			return fmt.Errorf("config for router %q has holes", name)
		}
	}
	return nil
}

// testAfterLease, when set by a test, is called on the handler
// goroutine right after a query has leased its explainer (the point a
// handler panic must not leak the lease from).
var testAfterLease func()

// explainerFor checks out (or builds) the explainer for the problem.
// The returned item is leased exclusively; exactly one of
// pool.Checkin/pool.Drop must follow.
func (s *Server) explainerFor(key string, net *topology.Network, dep config.Deployment, sp *spec.Spec, lift bool) (*engine.PoolItem, *core.Explainer, error) {
	if item, ok := s.pool.Checkout(key); ok {
		return item, item.Value.(*core.Explainer), nil
	}
	opts := core.DefaultOptions()
	opts.Lift = lift
	opts.VerifyProofs = s.opts.VerifyProofs
	e, err := core.NewExplainer(net, sp.Requirements(), dep, opts)
	if err != nil {
		s.pool.Drop(nil)
		return nil, nil, err
	}
	e.Session.ReportCache().SetMaxCost(sessionReportBytes)
	return &engine.PoolItem{Key: key, Session: e.Session, Value: e}, e, nil
}

// serveQuery handles /explain (diff=false) and /diff (diff=true).
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, diff bool) {
	s.ctrMu.Lock()
	s.ctr.Requests++
	if diff {
		s.ctr.DiffRequests++
	} else {
		s.ctr.ExplainRequests++
	}
	s.ctrMu.Unlock()

	if r.Method != http.MethodPost {
		s.failRequest(w, http.StatusBadRequest, errors.New("POST required"))
		return
	}
	var req request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&req); err != nil {
		s.failRequest(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
		return
	}
	if req.Topology == "" || req.Configs == "" || req.Spec == "" {
		s.failRequest(w, http.StatusBadRequest, errors.New("topology, configs, and spec are required"))
		return
	}
	endpoint := "/explain"
	if diff {
		endpoint = "/diff"
		if req.EditedConfigs == "" {
			s.failRequest(w, http.StatusBadRequest, errors.New("edited_configs is required for /diff"))
			return
		}
	}

	stream := req.Stream && !diff
	contentType := "application/json"
	if stream {
		contentType = "text/plain; charset=utf-8"
	}
	key := cacheKey(endpoint, &req)
	if body, ok := s.resp.Get(key); ok {
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("X-Cache", "hit")
		w.Write(body)
		return
	}

	if err := s.admit(r.Context()); err != nil {
		s.failRequest(w, http.StatusServiceUnavailable, err)
		return
	}
	defer func() { <-s.sem }()

	net, dep, sp, err := parseProblem(&req)
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, err)
		return
	}
	var edited config.Deployment
	if diff {
		edited, err = config.ParseDeployment(req.EditedConfigs)
		if err == nil {
			err = depMatchesNet(net, edited)
		}
		if err == nil {
			err = depConcrete(edited)
		}
		if err != nil {
			s.failRequest(w, http.StatusBadRequest, fmt.Errorf("edited_configs: %w", err))
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(&req))
	defer cancel()

	lift := !req.NoLift
	item, e, err := s.explainerFor(problemKey(net, dep, sp), net, dep, sp, lift)
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, err)
		return
	}
	// Until the lease is checked in (leased set to nil), a panic on this
	// goroutine must still close it. The interrupted session is dropped,
	// never re-pooled: the query may have left it half updated. The
	// client gets a 500 when nothing has been written yet; once a stream
	// has started, the connection is aborted.
	leased := item
	var sr *streamRecorder
	defer func() {
		if leased == nil {
			return
		}
		p := recover()
		if p == nil {
			return
		}
		s.pool.Drop(leased)
		if sr != nil && sr.wrote {
			s.ctrMu.Lock()
			s.ctr.Errors++
			s.ctrMu.Unlock()
			panic(http.ErrAbortHandler)
		}
		s.failRequest(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
	}()
	if testAfterLease != nil {
		testAfterLease()
	}
	// The lease is exclusive: the per-request knobs can be set directly.
	e.Opts.Lift = lift

	if stream {
		sr = &streamRecorder{w: w, cap: streamCacheCap, contentType: contentType}
		if f, ok := w.(http.Flusher); ok {
			sr.f = f
		}
		_, rerr := e.WriteReport(ctx, sr)
		s.pool.Checkin(item)
		leased = nil
		if rerr != nil {
			if !sr.wrote {
				s.failRequest(w, statusFor(rerr), rerr)
				return
			}
			// The status line went out with the first section; the only
			// honest failure signal left is killing the connection. The
			// client holds whole sections only (WriteReport stops at a
			// section boundary).
			s.ctrMu.Lock()
			s.ctr.Errors++
			s.ctrMu.Unlock()
			panic(http.ErrAbortHandler)
		}
		if sr.buf != nil {
			s.storeResponse(key, sr.buf)
		}
		return
	}

	var body []byte
	if diff {
		dr, derr := s.runDiff(ctx, e, edited)
		// The session survives failed queries (failed encodes and lifts
		// are not cached; solvers die with their query) — but ReExplain
		// may have retargeted the explainer, so re-key.
		s.checkinCurrent(item, e, sp)
		leased = nil
		if derr != nil {
			s.failRequest(w, statusFor(derr), derr)
			return
		}
		body = mustJSON(diffResponse{Report: dr.Report, Summary: dr.Summary, Stats: dr.Stats})
	} else {
		report, rerr := e.ReportContext(ctx)
		s.pool.Checkin(item)
		leased = nil
		if rerr != nil {
			s.failRequest(w, statusFor(rerr), rerr)
			return
		}
		body = mustJSON(explainResponse{Report: report})
	}

	s.storeResponse(key, body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.Write(body)
}

// streamCacheCap bounds the streamed bodies retained in the response
// cache: a report too large to be worth pinning in the entry-capped
// LRU is streamed and forgotten (a repeat request re-explains against
// the warm session instead).
const streamCacheCap = 8 << 20

// streamRecorder adapts the ResponseWriter for a streamed report: it
// commits the text content type on the first byte, flushes after every
// section so the client sees progress, and records the body for the
// response cache until it outgrows streamCacheCap.
type streamRecorder struct {
	w           http.ResponseWriter
	f           http.Flusher
	contentType string
	buf         []byte
	cap         int
	wrote       bool
}

func (sr *streamRecorder) Write(p []byte) (int, error) {
	if !sr.wrote {
		sr.w.Header().Set("Content-Type", sr.contentType)
		sr.w.Header().Set("X-Cache", "miss")
		sr.wrote = true
		sr.buf = make([]byte, 0, 4096)
	}
	m, err := sr.w.Write(p)
	if sr.buf != nil {
		if len(sr.buf)+m > sr.cap {
			sr.buf = nil
		} else {
			sr.buf = append(sr.buf, p[:m]...)
		}
	}
	if sr.f != nil {
		sr.f.Flush()
	}
	return m, err
}

// runDiff produces the incremental report for the edited deployment.
// The base report comes first: from the report cache for a pooled
// explainer warmed by an earlier request, rendered afresh otherwise,
// so the re-explanation finds every unedited section cached.
func (s *Server) runDiff(ctx context.Context, e *core.Explainer, edited config.Deployment) (*core.DiffReport, error) {
	if _, err := e.ReportContext(ctx); err != nil {
		return nil, fmt.Errorf("base report: %w", err)
	}
	dr, err := e.ReExplainContext(ctx, core.Delta{Deployment: edited})
	if err != nil {
		return nil, fmt.Errorf("re-explain: %w", err)
	}
	return dr, nil
}

// checkinCurrent returns the explainer to the pool under the key of
// whatever problem it now targets (ReExplain retargets it at the
// edited deployment and its successor session, making the warm state
// reusable by follow-up requests for that problem; the pool retires the
// predecessor session's work).
func (s *Server) checkinCurrent(item *engine.PoolItem, e *core.Explainer, sp *spec.Spec) {
	item.Key = problemKey(e.Net, e.Deployment, sp)
	s.pool.Retarget(item, e.Session)
	s.pool.Checkin(item)
}

// statusFor maps a query error to an HTTP status: deadline and
// cancellation are the client's budget running out (504), a base the
// encoder rejects is a bad problem (400), everything else is a
// server-side failure (500).
func statusFor(err error) int {
	var be *engine.BaseError
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, &be):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func mustJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// Metrics is the /metrics payload. A fixed struct (no maps, no
// timestamps), so repeated scrapes of a quiescent server are
// byte-stable — pinned by TestMetricsDeterministic.
type Metrics struct {
	Server struct {
		Requests               int `json:"requests"`
		ExplainRequests        int `json:"explain_requests"`
		DiffRequests           int `json:"diff_requests"`
		BadRequests            int `json:"bad_requests"`
		Errors                 int `json:"errors"`
		Rejected               int `json:"rejected"`
		Inflight               int `json:"inflight"`
		ResponseCacheHits      int `json:"response_cache_hits"`
		ResponseCacheMisses    int `json:"response_cache_misses"`
		ResponseCacheEntries   int `json:"response_cache_entries"`
		ResponseCacheEvictions int `json:"response_cache_evictions"`
		Pool                   struct {
			Idle      int `json:"idle"`
			Leased    int `json:"leased"`
			Hits      int `json:"hits"`
			Misses    int `json:"misses"`
			Evictions int `json:"evictions"`
		} `json:"pool"`
	} `json:"server"`
	// Engine aggregates engine.Stats across the pool (retired + idle
	// sessions); lift percentiles are recomputed over the union of the
	// idle sessions' sample windows.
	Engine engine.Stats `json:"engine"`
}

// Snapshot assembles the current metrics.
func (s *Server) Snapshot() Metrics {
	var m Metrics
	s.ctrMu.Lock()
	c := s.ctr
	s.ctrMu.Unlock()
	rc := s.resp.Stats()
	g := s.pool.Gauges()

	m.Server.Requests = c.Requests
	m.Server.ExplainRequests = c.ExplainRequests
	m.Server.DiffRequests = c.DiffRequests
	m.Server.BadRequests = c.BadRequests
	m.Server.Errors = c.Errors
	m.Server.Rejected = c.Rejected
	m.Server.Inflight = len(s.sem)
	m.Server.ResponseCacheHits = rc.Hits
	m.Server.ResponseCacheMisses = rc.Misses
	m.Server.ResponseCacheEntries = rc.Len
	m.Server.ResponseCacheEvictions = rc.Evictions
	m.Server.Pool.Idle = g.Idle
	m.Server.Pool.Leased = g.Leased
	m.Server.Pool.Hits = g.Hits
	m.Server.Pool.Misses = g.Misses
	m.Server.Pool.Evictions = g.Evictions
	m.Engine = s.pool.StatsSnapshot()
	return m
}

// serveMetrics renders the metrics JSON. Scraping is side-effect-free:
// /metrics requests are not counted anywhere, so two back-to-back
// scrapes of an idle server serve identical bytes.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
