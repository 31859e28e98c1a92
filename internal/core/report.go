package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"repro/internal/spec"
)

// Report renders a whole-deployment explanation document: for every
// configured router, the seed/simplified sizes and the lifted
// subspecification — the artifact a network operator would read after
// a synthesis run (the paper's "taming complexity" workflow applied to
// every device at once).
func (e *Explainer) Report() (string, error) {
	return e.ReportContext(context.Background())
}

// ReportContext is Report with cancellation and the budget's deadline
// applied: when the context is cancelled or the deadline passes, the
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
// error: the panic may have left the session half updated (an encode
// that never finished, say), so the caller must drop the explainer
// rather than reuse it.
func (e *Explainer) WriteReport(ctx context.Context, w io.Writer) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err // dead on arrival: fail before the first byte
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	ctx, cancelBudget := e.Opts.Budget.Apply(ctx)
	defer cancelBudget()
	return e.writeReportLocked(ctx, w)
}

// writeReportLocked is the streaming pipeline shared by WriteReport and
// the ReExplain sweep. Caller holds e.mu (shared or exclusive) and has
// applied the budget.
func (e *Explainer) writeReportLocked(ctx context.Context, w io.Writer) (int64, error) {
	routers := e.reportRouters()
	tee := newReportTee(e)
	var n int64
	write := func(s string) error {
		m, err := io.WriteString(w, s)
		n += int64(m)
		if err != nil {
			return err
		}
		tee.add(s)
		return nil
	}

	if err := write(e.renderHeader()); err != nil {
		return n, err
	}
	if len(routers) == 0 {
		tee.commit(e)
		return n, nil
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
		i        int
		section  string
		err      error
		panicked *workerPanic
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
					ex, err := e.explainAll(ctx, routers[i])
					d.err = err
					if err == nil {
						d.section = renderSection(routers[i], ex)
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
	parked := make(map[int]string, window)
	next := 0
	failIdx := -1
	var failErr error
	var panicked *workerPanic // the lowest-indexed worker panic
	panicIdx := -1
	fail := func(i int, err error) {
		// A context error is cancellation fallout, not the cause: note
		// it by cancelling, but keep the lowest-indexed slot open for a
		// real failure.
		if !isContextErr(err) && (failIdx == -1 || i < failIdx) {
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
			parked[d.i] = d.section
		}
		for {
			sec, ok := parked[next]
			if !ok {
				break
			}
			delete(parked, next)
			<-tokens
			next++
			if failIdx >= 0 || ctx.Err() != nil {
				continue // drained, not written
			}
			if err := write(sec); err != nil {
				fail(next-1, err)
			}
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	if failIdx >= 0 {
		return n, fmt.Errorf("core: explaining %s: %w", routers[failIdx], failErr)
	}
	if err := ctx.Err(); err != nil {
		return n, err
	}
	if next != len(routers) {
		return n, fmt.Errorf("core: %s not explained", routers[next])
	}
	tee.commit(e)
	return n, nil
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

// isContextErr reports whether err is (or wraps) a context
// cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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

// reportTee accumulates the rendered report as it streams so a
// successful run can be retained for ReExplain's fast path without the
// explainer holding the document itself: the bytes go to the session's
// byte-capped report cache, the explainer keeps only a key and a
// content hash. Buffering stops (and retention is skipped) once the
// document outgrows the cache's cap, so streaming a huge report never
// holds it in memory.
type reportTee struct {
	buf *strings.Builder
	cap int64
	n   int64
}

func newReportTee(e *Explainer) *reportTee {
	return &reportTee{buf: &strings.Builder{}, cap: e.Session.ReportCache().MaxCost()}
}

func (t *reportTee) add(s string) {
	t.n += int64(len(s))
	if t.buf == nil {
		return
	}
	if t.cap > 0 && t.n > t.cap {
		t.buf = nil // cannot fit the cache: stop holding the prefix
		return
	}
	t.buf.WriteString(s)
}

// commit stores the completed report and records its identity on the
// explainer; called only on success. A report that outgrew the cache
// clears the retained identity instead (the fast path will re-sweep).
func (t *reportTee) commit(e *Explainer) {
	e.reportMu.Lock()
	defer e.reportMu.Unlock()
	if t.buf == nil {
		e.lastReportKey = ""
		return
	}
	out := t.buf.String()
	e.Session.ReportCache().Put(reportCacheKey, out, int64(len(out)))
	e.lastReportKey = reportCacheKey
	e.lastReportSum = sha256.Sum256([]byte(out))
	e.lastReportLen = int64(len(out))
}

// reportCacheKey is the session report-cache key holding the latest
// rendered whole-deployment report. The cache is shared along a
// session's successor chain only, so one slot suffices: a successor's
// report displaces its predecessor's, which is exactly the retention
// the fast path wants. The "report|" namespace cannot collide with the
// per-router lift keys ("lift|...").
const reportCacheKey = "report|latest"

// loadLastReport returns the retained report, or "" when none was
// retained, the cache has since evicted it, or the cached bytes fail
// the recorded content hash (a foreign entry under the key). Never
// wrong, at worst a re-sweep.
func (e *Explainer) loadLastReport() string {
	e.reportMu.Lock()
	key, sum, size := e.lastReportKey, e.lastReportSum, e.lastReportLen
	e.reportMu.Unlock()
	if key == "" {
		return ""
	}
	v, ok := e.Session.ReportCache().Get(key)
	if !ok {
		return ""
	}
	out, ok := v.(string)
	if !ok || int64(len(out)) != size || sha256.Sum256([]byte(out)) != sum {
		return ""
	}
	return out
}
