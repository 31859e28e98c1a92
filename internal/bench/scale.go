package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/synth"
	"repro/internal/verify"
)

// ScaleEntry is one workload's measurement of the whole-network
// streaming report pipeline.
type ScaleEntry struct {
	Workload string
	Routers  int
	Links    int
	// Sections counts the router sections the report streamed — every
	// configured router (netgen.Populate makes that every internal
	// router, so whole-network reports actually cover the network).
	Sections int
	// Constraints describes the shared whole-network encoding
	// (MaxPathLen bounds candidate paths, so constraints plateau once
	// the topology outgrows the reachable radius).
	Constraints int
	SynthMS     float64
	// ReportMS is the wall time of streaming the full report through
	// Explainer.WriteReport; StreamedBytes is what reached the writer.
	ReportMS      float64
	StreamedBytes int64
	// PeakHeapBytes is the largest runtime.MemStats.HeapAlloc sampled
	// while the report streamed (absolute process heap, not a delta).
	PeakHeapBytes uint64
	// ScopedGroupsCopied/ScopedGroupsEncoded split the constraint
	// groups the per-router encodes copied verbatim from the session's
	// recorded whole-network encoding versus re-derived inside the
	// dirty router's cone. Copied >> encoded is the point: per-router
	// encode work tracks cone size, not network size.
	ScopedGroupsCopied  int
	ScopedGroupsEncoded int
	Encodes             int
	// Verified is verify.Satisfies on the synthesized deployment. Large
	// topologies report false: the encoder's bounded-path approximation
	// (MaxPathLen) cannot forbid transit along paths longer than the
	// bound, which the concrete network still has. That is a property
	// of the synthesis encoding the explainer faithfully inherits, not
	// an explanation defect — explanations are relative to the same
	// bounded encoding the synthesizer used.
	Verified bool
}

// scaleCase is one workload recipe of the scaling sweep. maxPathLen
// is the candidate-path bound the workload runs with (fat-trees use a
// shorter bound: the dense core makes longer paths combinatorially
// explosive and one up-down traversal already reaches the
// provider-attached core switches).
type scaleCase struct {
	build      func() (*netgen.Workload, error)
	maxPathLen int
}

func scaleCases(quick bool) []scaleCase {
	grid := func(w, h int) func() (*netgen.Workload, error) {
		return func() (*netgen.Workload, error) { return netgen.Grid(w, h, false) }
	}
	rand := func(n int) func() (*netgen.Workload, error) {
		return func() (*netgen.Workload, error) { return netgen.Random(n, 2.5, 42, false) }
	}
	fattree := func(k int) func() (*netgen.Workload, error) {
		return func() (*netgen.Workload, error) { return netgen.FatTree(k, false) }
	}
	if quick {
		return []scaleCase{
			{build: grid(4, 4), maxPathLen: 7},
			{build: rand(20), maxPathLen: 7},
			{build: fattree(4), maxPathLen: 7},
		}
	}
	return []scaleCase{
		{build: grid(8, 8), maxPathLen: 7},
		{build: grid(20, 20), maxPathLen: 7},
		{build: grid(40, 40), maxPathLen: 7},
		{build: fattree(8), maxPathLen: 4},
		{build: fattree(16), maxPathLen: 4},
		{build: rand(300), maxPathLen: 7},
		{build: rand(1100), maxPathLen: 7},
	}
}

// countingWriter counts the bytes written to it and discards them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// heapWatcher samples runtime.MemStats.HeapAlloc on a fixed period and
// keeps the peak. Sampling (rather than a before/after delta) is what
// catches the transient high-water mark of a streaming run whose whole
// point is that memory is released as sections flush.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapWatcher() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > w.peak {
			w.peak = ms.HeapAlloc
		}
	}
	sample()
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return w
}

// Peak stops the watcher, takes a final sample, and returns the high-
// water mark.
func (w *heapWatcher) Peak() uint64 {
	close(w.stop)
	<-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > w.peak {
		w.peak = ms.HeapAlloc
	}
	return w.peak
}

// runScaleCase synthesizes one populated workload and streams its
// whole-network report, measuring wall time, streamed bytes, peak
// heap, and the scoped-encode statistics.
func runScaleCase(ctx context.Context, cs scaleCase) (ScaleEntry, error) {
	wl, err := cs.build()
	if err != nil {
		return ScaleEntry{}, err
	}
	netgen.Populate(wl)

	opts := synth.DefaultOptions()
	opts.MaxPathLen = cs.maxPathLen
	opts.MaxCandidatesPerNode = 8

	start := time.Now()
	res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), opts)
	if err != nil {
		return ScaleEntry{}, fmt.Errorf("%s: %w", wl.Name, err)
	}
	synthMS := float64(time.Since(start).Microseconds()) / 1000

	ok, err := verify.SatisfiesContext(ctx, wl.Net, res.Deployment, wl.Requirements())
	if err != nil {
		return ScaleEntry{}, fmt.Errorf("%s: %w", wl.Name, err)
	}

	copts := core.DefaultOptions()
	copts.Synth = opts
	copts.Lift = false

	ex, err := core.NewExplainer(wl.Net, wl.Requirements(), res.Deployment, copts)
	if err != nil {
		return ScaleEntry{}, err
	}
	// Bound the session report cache, which keeps every rendered
	// section, to 1 MiB: the experiment measures streaming memory, not
	// retained-section memory.
	ex.Session.ReportCache().SetMaxCost(1 << 20)
	cw := &countingWriter{}
	hw := startHeapWatcher()
	start = time.Now()
	n, err := ex.WriteReport(ctx, cw)
	reportMS := float64(time.Since(start).Microseconds()) / 1000
	peak := hw.Peak()
	if err != nil {
		return ScaleEntry{}, fmt.Errorf("%s: %w", wl.Name, err)
	}
	st := ex.Stats()

	return ScaleEntry{
		Workload:            wl.Name,
		Routers:             len(wl.Net.Internals()),
		Links:               wl.Net.NumLinks(),
		Sections:            len(res.Deployment),
		Constraints:         res.Encoding.Stats.ConstraintSize,
		SynthMS:             synthMS,
		ReportMS:            reportMS,
		StreamedBytes:       n,
		PeakHeapBytes:       peak,
		ScopedGroupsCopied:  st.ScopedGroupsCopied,
		ScopedGroupsEncoded: st.ScopedGroupsEncoded,
		Encodes:             st.Encodes,
		Verified:            ok,
	}, nil
}

// Scale runs the scaling sweep: whole-network streaming reports over
// populated grid, fat-tree, and random topologies. quick trims the
// sweep to test-size workloads.
func Scale(ctx context.Context, quick bool) ([]ScaleEntry, error) {
	var entries []ScaleEntry
	for _, cs := range scaleCases(quick) {
		e, err := runScaleCase(ctx, cs)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// ScaleTable runs the scalability extension (the paper leaves this
// "untested") as a text table: populated grid, fat-tree, and random
// topologies with every router explained through one streaming
// whole-network report. quick trims the sweep for test runs.
func ScaleTable(ctx context.Context, quick bool) (*Table, error) {
	t := &Table{
		ID: "scale (extension Ext-1)",
		Caption: "Whole-network streaming reports on larger topologies (no-transit workload, netgen.Populate gives every router a config; MaxCandidatesPerNode=8, Lift off). " +
			"report-ms streams every router section through one session (Explainer.WriteReport); groups copied/encoded show the cone-scoped encode splicing the recorded whole-network encoding instead of re-deriving it. " +
			"verified=false at large sizes reflects the MaxPathLen-bounded encoding (paths longer than the bound escape the synthesizer's control), not an explanation bug. " +
			"The paper: 'scalability ... remains untested'.",
		Columns: []string{"workload", "routers", "links", "constraints", "synth-ms", "report-ms", "KB-streamed", "peak-heap-MB", "groups-copied", "groups-encoded", "verified"},
	}
	entries, err := Scale(ctx, quick)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		t.AddRow(e.Workload, e.Routers, e.Links, e.Constraints,
			fmt.Sprintf("%.0f", e.SynthMS), fmt.Sprintf("%.0f", e.ReportMS),
			fmt.Sprintf("%.0f", float64(e.StreamedBytes)/1024),
			fmt.Sprintf("%.0f", float64(e.PeakHeapBytes)/(1<<20)),
			e.ScopedGroupsCopied, e.ScopedGroupsEncoded, e.Verified)
	}
	return t, nil
}
