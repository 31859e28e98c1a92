package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
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

// ServeEntry is one workload's measurement of the netexplaind serving
// layer, driven through the HTTP handler in-process.
type ServeEntry struct {
	Workload string
	// Requests is the number of explain/diff requests issued;
	// Concurrency is how many clients issued them at once.
	Requests    int
	Concurrency int
	// HitRate is the server's response-cache hit ratio after the run
	// (scraped from /metrics).
	HitRate float64
	// ThroughputRPS is requests divided by the run's wall time.
	ThroughputRPS float64
	// P50MS/P99MS are per-request latency percentiles in milliseconds
	// (cache hits included — that is the latency clients observe).
	P50MS float64
	P99MS float64
	// ByteIdentical reports every served explain/diff report matched
	// the netexplain CLI's output for the same problem, byte for byte.
	ByteIdentical bool
	// Errors counts non-200 responses (0 in a healthy run).
	Errors int
}

// serveWorkload is one problem rendered in the wire formats, plus an
// edited variant for diff traffic and the CLI-equivalent ground-truth
// reports.
type serveWorkload struct {
	name                       string
	topo, configs, spc, edited string
	lift                       bool
	wantBase, wantEdited       string
	wantDiffSummaryMark        string
}

// serveSeedWorkload renders one seed scenario for the harness.
func serveSeedWorkload(ctx context.Context, sc *scenarios.Scenario) (*serveWorkload, error) {
	res, err := synthesizeScenario(ctx, sc)
	if err != nil {
		return nil, err
	}
	return newServeWorkload(ctx, sc.Name, sc.Net, sc.Spec, res.Deployment, true)
}

// serveGridWorkload renders the netgen grid preset. Lift is disabled
// for parity with the scale experiment (the grid's interest is
// encoding volume, not lifted interpretation).
func serveGridWorkload(ctx context.Context, w, h int) (*serveWorkload, error) {
	wl, err := netgen.Grid(w, h, false)
	if err != nil {
		return nil, err
	}
	opts := synth.DefaultOptions()
	opts.MaxPathLen = 7
	opts.MaxCandidatesPerNode = 8
	res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), opts)
	if err != nil {
		return nil, err
	}
	return newServeWorkload(ctx, wl.Name, wl.Net, wl.Spec, res.Deployment, false)
}

func newServeWorkload(ctx context.Context, name string, net *topology.Network, sp *spec.Spec, dep config.Deployment, lift bool) (*serveWorkload, error) {
	edited, edits := netgen.Perturb(dep, 1, 1)
	if len(edits) == 0 {
		return nil, fmt.Errorf("serve: %s has no edit sites", name)
	}
	w := &serveWorkload{
		name:    name,
		topo:    topology.Print(net),
		configs: config.PrintDeployment(dep),
		spc:     spec.Print(sp),
		edited:  config.PrintDeployment(edited),
		lift:    lift,
	}
	// Ground truth through the same core path the netexplain CLI
	// prints verbatim.
	copts := core.DefaultOptions()
	copts.Lift = lift
	base, err := core.NewExplainer(net, sp.Requirements(), dep, copts)
	if err != nil {
		return nil, err
	}
	if w.wantBase, err = base.ReportContext(ctx); err != nil {
		return nil, err
	}
	ed, err := core.NewExplainer(net, sp.Requirements(), edited, copts)
	if err != nil {
		return nil, fmt.Errorf("serve: %s edited variant: %w", name, err)
	}
	if w.wantEdited, err = ed.ReportContext(ctx); err != nil {
		return nil, fmt.Errorf("serve: %s edited variant: %w", name, err)
	}
	w.wantDiffSummaryMark = "WHAT-IF DELTA SUMMARY"
	return w, nil
}

// serveRequest mirrors the server's wire request shape.
type serveRequest struct {
	Topology      string `json:"topology"`
	Configs       string `json:"configs"`
	Spec          string `json:"spec"`
	EditedConfigs string `json:"edited_configs,omitempty"`
	NoLift        bool   `json:"nolift,omitempty"`
}

// driveServe fires n requests at the handler from conc clients. The
// traffic mix is the serving layer's steady state: repeated identical
// base explains (response-cache hits after the first), explains of the
// edited problem, and what-if diffs from base to edited.
func driveServe(ctx context.Context, h http.Handler, w *serveWorkload, n, conc int) (latencies []time.Duration, identical bool, errs int) {
	kinds := []serveRequest{
		{Topology: w.topo, Configs: w.configs, Spec: w.spc, NoLift: !w.lift},
		{Topology: w.topo, Configs: w.edited, Spec: w.spc, NoLift: !w.lift},
		{Topology: w.topo, Configs: w.configs, Spec: w.spc, EditedConfigs: w.edited, NoLift: !w.lift},
	}
	paths := []string{"/explain", "/explain", "/diff"}
	wants := []string{w.wantBase, w.wantEdited, w.wantEdited}

	latencies = make([]time.Duration, n)
	identical = true
	var mu sync.Mutex
	doReq := func(i int) {
		k := i % len(kinds)
		body, _ := json.Marshal(kinds[k])
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, paths[k], bytes.NewReader(body)).WithContext(ctx)
		start := time.Now()
		h.ServeHTTP(rec, req)
		elapsed := time.Since(start)

		ok := rec.Code == http.StatusOK
		match := false
		if ok {
			var resp struct {
				Report  string `json:"report"`
				Summary string `json:"summary"`
			}
			if json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
				match = resp.Report == wants[k]
				if paths[k] == "/diff" {
					match = match && bytes.Contains([]byte(resp.Summary), []byte(w.wantDiffSummaryMark))
				}
			}
		}
		mu.Lock()
		latencies[i] = elapsed
		if !ok {
			errs++
		} else if !match {
			identical = false
		}
		mu.Unlock()
	}

	// One sequential pass over the request kinds first: it populates
	// the response cache (and warms the session pool) so the measured
	// flood exercises the steady state rather than a thundering herd
	// of identical cold misses.
	warm := len(kinds)
	if warm > n {
		warm = n
	}
	for i := 0; i < warm; i++ {
		doReq(i)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				doReq(i)
			}
		}()
	}
	for i := warm; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return latencies, identical, errs
}

// latencyPercentile returns the p-th percentile (0 < p <= 100) of the
// given latencies in milliseconds.
func latencyPercentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds()) / 1000
}

// Serve measures the netexplaind serving layer on the seed scenarios
// plus a netgen grid preset (skipped when quick), driving the HTTP
// handler in-process. Each workload gets a fresh server so cache
// counters are per-workload.
func Serve(ctx context.Context, quick bool) ([]ServeEntry, error) {
	var workloads []*serveWorkload
	for _, sc := range scenarios.All() {
		w, err := serveSeedWorkload(ctx, sc)
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, w)
	}
	if !quick {
		w, err := serveGridWorkload(ctx, 3, 3)
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, w)
	}

	const conc = 16
	n := 48
	if quick {
		n = 12
	}
	var entries []ServeEntry
	for _, w := range workloads {
		srv := server.New(server.Options{
			MaxInflight:       conc,
			ResponseCacheSize: 256,
			PoolSize:          4,
		})
		h := srv.Handler()
		start := time.Now()
		lat, identical, errs := driveServe(ctx, h, w, n, conc)
		wall := time.Since(start)

		snap := srv.Snapshot()
		hits, misses := snap.Server.ResponseCacheHits, snap.Server.ResponseCacheMisses
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		entries = append(entries, ServeEntry{
			Workload:      w.name,
			Requests:      n,
			Concurrency:   conc,
			HitRate:       hitRate,
			ThroughputRPS: float64(n) / wall.Seconds(),
			P50MS:         latencyPercentile(lat, 50),
			P99MS:         latencyPercentile(lat, 99),
			ByteIdentical: identical,
			Errors:        errs,
		})
	}
	return entries, nil
}

// ServeTable renders the serve measurement as an experiment table.
func ServeTable(ctx context.Context, quick bool) (*Table, error) {
	entries, err := Serve(ctx, quick)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "serve (extension Ext-5)",
		Caption: "netexplaind serving layer: concurrent explain/diff traffic through the HTTP handler. hit-rate is the content-addressed response cache; byte-identical checks every served report against the netexplain CLI's output for the same problem.",
		Columns: []string{"workload", "requests", "conc", "hit-rate", "rps", "p50-ms", "p99-ms", "byte-identical", "errors"},
	}
	for _, e := range entries {
		t.AddRow(e.Workload, e.Requests, e.Concurrency,
			fmt.Sprintf("%.2f", e.HitRate), fmt.Sprintf("%.1f", e.ThroughputRPS),
			fmt.Sprintf("%.1f", e.P50MS), fmt.Sprintf("%.1f", e.P99MS),
			e.ByteIdentical, e.Errors)
	}
	return t, nil
}
