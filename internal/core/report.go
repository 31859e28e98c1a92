package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/synth"
)

// Report renders a whole-deployment explanation document: for every
// configured router, the seed/simplified sizes and the lifted
// subspecification — the artifact a network operator would read after
// a synthesis run (the paper's "taming complexity" workflow applied to
// every device at once).
func (e *Explainer) Report() (string, error) {
	return e.ReportContext(context.Background())
}

// ReportContext is Report with cancellation: when the context is
// cancelled or its deadline passes, the
// in-flight explanations abort and the first error is returned once
// every worker has exited (no goroutines are leaked).
func (e *Explainer) ReportContext(ctx context.Context) (string, error) {
	var sb strings.Builder
	if _, err := e.WriteReport(ctx, &sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// WriteReport streams the whole-deployment report to w, returning the
// number of bytes written. The output is byte-identical to
// ReportContext; the difference is shape, not content: router sections
// are written in report order as a bounded worker pool completes them,
// so on wide deployments the first sections reach the reader while the
// last routers are still being explained, and the peak memory held for
// rendered-but-unwritten text is bounded by the stream window (four
// sections per worker) rather than the whole document.
//
// On error — a failed explanation, a failed write, or cancellation —
// the stream stops at a section boundary: w has received the header
// and a (possibly empty) prefix of whole router sections, never a
// partial section. Every worker has exited before WriteReport returns.
// The error is the lowest-indexed router's non-context failure when
// one exists (independent of worker scheduling), otherwise the
// context's own error.
//
// A panic in a worker stops the stream the same way, and once every
// worker has exited it is re-raised on the caller's goroutine, naming
// the router and carrying the worker's stack. It is not turned into an
// error: a panic is a bug that may have left the explainer half
// updated (a ReExplain has already swapped in its successor session,
// say), so the caller must drop the explainer rather than reuse it.
func (e *Explainer) WriteReport(ctx context.Context, w io.Writer) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err // dead on arrival: fail before the first byte
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	n, _, err := e.writeReportLocked(ctx, w)
	return n, err
}

// writeReportLocked is the streaming pipeline shared by WriteReport and
// the ReExplain sweep. Caller holds e.mu (shared or exclusive). Besides the bytes written it returns, in report
// order, the routers whose sections it rendered: the report cache held
// every other section under its locality key (see section).
//
// Before the first byte it builds the session's base, so a problem the
// encoder rejects fails with the session's engine.BaseError and
// nothing written, unless the report cache holds every section and
// more than one router is configured: then no section reads the base,
// and a fault in one router's config changes what every other
// router's key digests, so some section would have missed. With one
// router the base is built anyway: its own key, taken over its
// symbolized config, can hide the fault. The lookups that decide this
// are the sections' own (lookupSections), so none is counted twice.
func (e *Explainer) writeReportLocked(ctx context.Context, w io.Writer) (int64, []string, error) {
	routers := e.reportRouters()
	keys := e.readKeys()
	looked, missed := e.lookupSections(keys, routers)
	if missed || len(routers) == 1 {
		if _, err := e.Session.PrepareScoped(ctx); err != nil {
			return 0, nil, err
		}
	}
	var n int64
	write := func(s string) error {
		m, err := io.WriteString(w, s)
		n += int64(m)
		return err
	}

	if err := write(e.renderHeader()); err != nil {
		return n, nil, err
	}
	if len(routers) == 0 {
		return n, nil, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := runtime.GOMAXPROCS(0)
	if workers > len(routers) {
		workers = len(routers)
	}
	// window lets each worker run a few routers ahead of a slow one
	// while buffered sections stay O(workers), not O(network).
	window := 4 * workers

	type done struct {
		i          int
		section    string
		recomputed bool
		err        error
		panicked   *workerPanic
	}
	// tokens bounds the routers issued but not yet flushed (in flight
	// in a worker, or rendered and parked out of order). results has
	// the same capacity, so workers never block on delivery and always
	// drain after an error.
	tokens := make(chan struct{}, window)
	results := make(chan done, window)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				d := done{i: i}
				func() {
					defer func() {
						if r := recover(); r != nil {
							d.panicked = &workerPanic{router: routers[i], value: r, stack: debug.Stack()}
						}
					}()
					if testBeforeSection != nil {
						testBeforeSection(routers[i])
					}
					l := looked[i]
					if l == nil {
						l, d.err = e.lookupSection(keys, routers[i])
					}
					if d.err == nil {
						d.section, d.recomputed, d.err = e.section(ctx, l)
					}
				}()
				results <- d
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range routers {
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Flush sections strictly in router order, parking out-of-order
	// completions. After any failure, keep draining (workers must not
	// be abandoned mid-send) but write nothing further: the stream ends
	// at the last section flushed before the failure surfaced.
	parked := make(map[int]done, window)
	var recomputed []string
	next := 0
	failIdx := -1
	var failErr error
	var panicked *workerPanic // the lowest-indexed worker panic
	panicIdx := -1
	fail := func(i int, err error) {
		// A context error is cancellation fallout, not the cause: note
		// it by cancelling, but keep the lowest-indexed slot open for a
		// real failure.
		if !engine.IsContextErr(err) && (failIdx == -1 || i < failIdx) {
			failIdx, failErr = i, err
		}
		cancel()
	}
	for d := range results {
		switch {
		case d.panicked != nil:
			if panicked == nil || d.i < panicIdx {
				panicked, panicIdx = d.panicked, d.i
			}
			cancel()
		case d.err != nil:
			fail(d.i, d.err)
		default:
			parked[d.i] = d
		}
		for {
			p, ok := parked[next]
			if !ok {
				break
			}
			delete(parked, next)
			<-tokens
			next++
			if failIdx >= 0 || ctx.Err() != nil {
				continue // drained, not written
			}
			if p.recomputed {
				recomputed = append(recomputed, routers[p.i])
			}
			if err := write(p.section); err != nil {
				fail(p.i, err)
			}
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	if failIdx >= 0 {
		return n, recomputed, fmt.Errorf("core: explaining %s: %w", routers[failIdx], failErr)
	}
	if err := ctx.Err(); err != nil {
		return n, recomputed, err
	}
	if next != len(routers) {
		return n, recomputed, fmt.Errorf("core: %s not explained", routers[next])
	}
	return n, recomputed, nil
}

// readKeys digests the explainer's deployment for its sections'
// locality keys, salted with what a section depends on beyond its
// derived encoding: the lift options.
func (e *Explainer) readKeys() *synth.ReadKeys {
	return synth.NewReadKeys(e.Deployment, e.Reqs, e.Opts.Synth,
		fmt.Sprintf("lift %t, proofs %t", e.Opts.Lift, e.Opts.VerifyProofs))
}

// sectionLookup is one router's report-cache lookup: the symbolization
// its section is explained from, the locality key it is cached under,
// and the cached section if the lookup hit.
type sectionLookup struct {
	router   string
	targets  []Target
	sym      *config.Config
	replaced map[string]string
	key      string
	cached   string
	hit      bool
}

// lookupSection symbolizes the router and looks its section up in the
// report cache. A section is a function of the router's derived
// encoding and the lift options alone (reports are byte-identical
// however they were produced), and the locality key digests exactly
// what that encoding reads (synth.ReadKeys) plus those options, so a
// section cached under the key is the section.
func (e *Explainer) lookupSection(keys *synth.ReadKeys, router string) (*sectionLookup, error) {
	if e.Net.Router(router) == nil {
		return nil, fmt.Errorf("core: unknown router %q", router)
	}
	c := e.Deployment[router]
	l := &sectionLookup{router: router, targets: AllTargets(c)}
	var err error
	if l.sym, l.replaced, err = e.symbolize(router, l.targets); err != nil {
		return nil, err
	}
	override := l.sym
	if override == nil {
		override = c
	}
	l.key = keys.Key(router, override)
	l.cached, l.hit = e.Session.ReportCache().Get(l.key)
	return l, nil
}

// lookupSections looks the routers' sections up in report order until
// the first that misses or fails; it returns the lookups made (nil for
// the routers after) and whether the report needs a section rendered.
func (e *Explainer) lookupSections(keys *synth.ReadKeys, routers []string) ([]*sectionLookup, bool) {
	looked := make([]*sectionLookup, len(routers))
	for i, r := range routers {
		l, err := e.lookupSection(keys, r)
		if err != nil {
			return looked, true // the section's worker fails on it again
		}
		looked[i] = l
		if !l.hit {
			return looked, true
		}
	}
	return looked, false
}

// section returns the looked-up router's report section, and whether it
// had to be rendered: on a miss it is explained from the symbolized
// config the key was taken from, rendered and stored.
func (e *Explainer) section(ctx context.Context, l *sectionLookup) (string, bool, error) {
	if l.hit {
		return l.cached, false, nil
	}
	ex, err := e.explain(ctx, l.router, l.targets, l.sym, l.replaced)
	if err != nil {
		return "", true, err
	}
	s := renderSection(l.router, ex)
	e.Session.ReportCache().Put(l.key, s, int64(len(l.key)+len(s)))
	return s, true, nil
}

// testBeforeSection, when set by a test, is called by a report worker
// with the router it is about to explain.
var testBeforeSection func(router string)

// workerPanic is a report worker's recovered panic, re-raised on the
// goroutine that called WriteReport or ReExplainContext. It names the
// router and keeps the worker's stack, which the re-raising
// goroutine's own stack no longer shows.
type workerPanic struct {
	router string
	value  any
	stack  []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("core: explaining %s: panic: %v\n\n%s", p.router, p.value, p.stack)
}

// reportRouters returns the configured routers in report order.
func (e *Explainer) reportRouters() []string {
	routers := make([]string, 0, len(e.Deployment))
	for r := range e.Deployment {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	return routers
}

// renderHeader renders the report preamble (title and global intent).
func (e *Explainer) renderHeader() string {
	var sb strings.Builder
	sb.WriteString("EXPLANATION REPORT\n")
	sb.WriteString("==================\n\n")
	sb.WriteString("Global intent:\n")
	for _, r := range e.Reqs {
		fmt.Fprintf(&sb, "    %s\n", r)
	}
	sb.WriteString("\n")
	return sb.String()
}

// renderSection renders one router's report section. Pure formatting:
// every byte is determined by the explanation.
func renderSection(router string, ex *Explanation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s ---\n", router)
	fmt.Fprintf(&sb, "seed: %d atoms over %d variables; simplified: %d atoms (%.0fx, %d passes)\n",
		ex.SeedSize, len(ex.HoleVars), ex.SimplifiedSize, ex.Reduction(), ex.Passes)
	if ex.Subspec == nil {
		sb.WriteString("(lifting disabled)\n\n")
		return sb.String()
	}
	if ex.Subspec.IsEmpty() {
		fmt.Fprintf(&sb, "%s { }   // unconstrained: %s can do anything for this intent\n\n", router, router)
		return sb.String()
	}
	sb.WriteString(spec.PrintBlock(ex.Subspec))
	if ex.SubspecComplete {
		sb.WriteString("(necessary and sufficient)\n")
	} else {
		sb.WriteString("(necessary; sufficiency not fully verified)\n")
	}
	sb.WriteString("\n")
	return sb.String()
}
