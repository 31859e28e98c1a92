package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenarios"
)

// TestWriteReportMatchesReport pins that the streaming writer produces
// the exact bytes of the buffered report of a separate explainer.
func TestWriteReportMatchesReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   *scenarios.Scenario
	}{
		{"scenario1", scenarios.Scenario1()},
		{"scenario2", scenarios.Scenario2()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep := synthScenario(t, tc.sc)
			want, err := newExplainer(t, tc.sc, dep, nil).Report()
			if err != nil {
				t.Fatal(err)
			}

			e := newExplainer(t, tc.sc, dep, nil)
			var sb strings.Builder
			n, err := e.WriteReport(context.Background(), &sb)
			if err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != want {
				t.Errorf("streamed report differs from buffered report.\nstreamed:\n%s\nbuffered:\n%s", got, want)
			}
			if n != int64(sb.Len()) {
				t.Errorf("WriteReport returned n = %d, wrote %d bytes", n, sb.Len())
			}
			if st := e.Stats(); st.ScopedGroupsCopied == 0 {
				t.Error("streaming report spliced no constraint groups")
			}
			// The streamed run retained its report: an invisible edit is
			// answered on the fast path.
			dr, err := e.ReExplain(Delta{})
			if err != nil {
				t.Fatal(err)
			}
			if !dr.Stats.FastPath {
				t.Error("no-op ReExplain after WriteReport missed the fast path")
			}
			if dr.Report != want {
				t.Error("fast-path report after WriteReport differs")
			}
		})
	}
}

// sectionPrefix checks that got is a clean stream prefix of full: the
// header plus zero or more whole router sections, nothing else.
func sectionPrefix(t *testing.T, got, full, header string) {
	t.Helper()
	if !strings.HasPrefix(full, got) {
		t.Fatalf("output is not a prefix of the full report:\n%q", got)
	}
	if got == "" {
		return
	}
	if !strings.HasPrefix(got, header) {
		t.Fatalf("output does not start with the header:\n%q", got)
	}
	rest := full[len(got):]
	if rest != "" && !strings.HasPrefix(rest, "--- ") && len(got) > len(header) {
		t.Fatalf("output ends mid-section; next bytes %q", rest[:min(len(rest), 40)])
	}
}

// cancelAfterWriter cancels a context once it has seen a given number
// of Write calls, then keeps accepting writes (the pipeline must stop
// on its own) while recording everything.
type cancelAfterWriter struct {
	mu     sync.Mutex
	sb     strings.Builder
	writes int
	after  int
	cancel context.CancelFunc
	closed bool
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		panic("write after WriteReport returned")
	}
	w.writes++
	if w.writes == w.after {
		w.cancel()
	}
	return w.sb.Write(p)
}

func (w *cancelAfterWriter) seal() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return w.sb.String()
}

func TestWriteReportCancelledMidStream(t *testing.T) {
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	full, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	header := e.renderHeader()

	before := runtime.NumGoroutine()
	for after := 1; after <= 2; after++ {
		ctx, cancel := context.WithCancel(context.Background())
		w := &cancelAfterWriter{after: after, cancel: cancel}
		_, err := e.WriteReport(ctx, w)
		cancel()
		got := w.seal()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after %d writes: err = %v, want context.Canceled", after, err)
		}
		sectionPrefix(t, got, full, header)
	}
	// Every pipeline goroutine must have exited before return.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}

	// The session is not poisoned: a fresh report still matches.
	again, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	if again != full {
		t.Error("report after cancellation differs")
	}
}

// failingWriter errors on the write that would exceed its budget.
type failingWriter struct {
	mu     sync.Mutex
	sb     strings.Builder
	allow  int
	closed bool
}

var errSink = fmt.Errorf("sink full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		panic("write after WriteReport returned")
	}
	if w.allow <= 0 {
		return 0, errSink
	}
	w.allow--
	return w.sb.Write(p)
}

func (w *failingWriter) seal() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return w.sb.String()
}

func TestWriteReportWriterError(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	full, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	header := e.renderHeader()

	for allow := 0; allow <= 2; allow++ {
		w := &failingWriter{allow: allow}
		n, err := e.WriteReport(context.Background(), w)
		got := w.seal()
		if !errors.Is(err, errSink) {
			t.Fatalf("allow=%d: err = %v, want errSink", allow, err)
		}
		if n != int64(len(got)) {
			t.Errorf("allow=%d: n = %d, wrote %d", allow, n, len(got))
		}
		sectionPrefix(t, got, full, header)
	}

	// A failed stream leaves the last successful report retained.
	var sb strings.Builder
	if _, err := e.WriteReport(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != full {
		t.Error("report after writer errors differs")
	}
}

// TestReportWorkerPanicReachesCaller injects a panic into the report
// worker explaining one router. The stream must stop, every pool
// goroutine must exit, and the panic must be re-raised on the goroutine
// that called WriteReport or ReExplainContext, naming the router and
// carrying the worker's stack. The process survives: a fresh explainer
// still reports the golden bytes.
func TestReportWorkerPanicReachesCaller(t *testing.T) {
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	want, err := os.ReadFile(filepath.Join("testdata", "report_"+sc.Name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	victim := newExplainer(t, sc, dep, nil).reportRouters()[1]
	testBeforeSection = func(router string) {
		if router == victim {
			panic("injected fault")
		}
	}
	defer func() { testBeforeSection = nil }()

	before := runtime.NumGoroutine()
	calls := []struct {
		name string
		run  func(e *Explainer)
	}{
		{"WriteReport", func(e *Explainer) { e.WriteReport(context.Background(), io.Discard) }}, //nolint:errcheck // must panic
		// A fresh explainer has no retained report, so even an empty
		// delta sweeps every router.
		{"ReExplainContext", func(e *Explainer) { e.ReExplainContext(context.Background(), Delta{}) }}, //nolint:errcheck // must panic
	}
	for _, c := range calls {
		e := newExplainer(t, sc, dep, nil)
		got := func() (p any) {
			defer func() { p = recover() }()
			c.run(e)
			return nil
		}()
		wp, ok := got.(*workerPanic)
		if !ok {
			t.Fatalf("%s: recovered %v (%T), want the worker's panic", c.name, got, got)
		}
		msg := wp.Error()
		if wp.router != victim || !strings.Contains(msg, victim) || !strings.Contains(msg, "injected fault") {
			t.Errorf("%s: panic %q does not name router %s and its fault", c.name, msg, victim)
		}
		if !strings.Contains(msg, "writeReportLocked") {
			t.Errorf("%s: panic does not carry the worker's stack:\n%s", c.name, msg)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}

	testBeforeSection = nil
	got, err := newExplainer(t, sc, dep, nil).Report()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Error("report after a worker panic differs from golden")
	}
}
