package bench

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/synth"
)

// TestScaleTableQuick runs the trimmed scaling sweep end to end: every
// quick workload synthesizes, streams its whole-network report, and
// verifies.
func TestScaleTableQuick(t *testing.T) {
	tbl, err := ScaleTable(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatalf("rows = %d, want >= 3", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("%s: verification failed", row[0])
		}
	}
}

// TestScaleSmoke streams a whole-network report over a 400-router
// populated grid — the CI-sized pin that per-router encode work rides
// the cone-scoped path and the stream covers every router.
func TestScaleSmoke(t *testing.T) {
	e, err := runScaleCase(context.Background(), scaleCase{
		build:      func() (*netgen.Workload, error) { return netgen.Grid(20, 20, false) },
		maxPathLen: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Routers < 400 {
		t.Fatalf("routers = %d, want >= 400", e.Routers)
	}
	if e.Sections != e.Routers {
		t.Errorf("sections = %d, want %d (every router explained)", e.Sections, e.Routers)
	}
	if e.Encodes != e.Sections {
		t.Errorf("encodes = %d, want %d (one spliced encode per section)", e.Encodes, e.Sections)
	}
	if e.ScopedGroupsCopied <= e.ScopedGroupsEncoded {
		t.Errorf("groups copied = %d <= encoded = %d: scoping is not localizing work",
			e.ScopedGroupsCopied, e.ScopedGroupsEncoded)
	}
	if e.StreamedBytes == 0 || e.PeakHeapBytes == 0 {
		t.Errorf("missing measurements: streamed=%d peakHeap=%d", e.StreamedBytes, e.PeakHeapBytes)
	}
}

// TestScaleByteIdentity pins report byte-identity on the netgen preset
// shapes, with proof verification on, against a report streamed by a
// one-worker pool: on the lifted workload across the report stream's
// router-pool width (GOMAXPROCS 1, 2 and 8, restored on exit, so the
// test must not call t.Parallel), elsewhere at the host's width. The
// encodings themselves are pinned against the plain whole-network
// encoder by synth's TestScopedEncodeIdentical; the seed scenarios have
// the same report pin in internal/core (golden worker-count reports run
// through the streaming path).
func TestScaleByteIdentity(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		build  func() (*netgen.Workload, error)
		mpl    int
		lift   bool
		matrix bool
	}{
		{"grid_3x3_lift", func() (*netgen.Workload, error) { return netgen.Grid(3, 3, false) }, 7, true, true},
		{"fattree_4", func() (*netgen.Workload, error) { return netgen.FatTree(4, false) }, 4, false, false},
		{"rand_20", func() (*netgen.Workload, error) { return netgen.Random(20, 2.5, 42, false) }, 7, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			netgen.Populate(wl)
			sopts := synth.DefaultOptions()
			sopts.MaxPathLen = tc.mpl
			sopts.MaxCandidatesPerNode = 8
			res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), sopts)
			if err != nil {
				t.Fatal(err)
			}

			report := func() string {
				opts := core.DefaultOptions()
				opts.Synth = sopts
				opts.Lift = tc.lift
				opts.VerifyProofs = true
				ex, err := core.NewExplainer(wl.Net, wl.Requirements(), res.Deployment, opts)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				if _, err := ex.WriteReport(ctx, &sb); err != nil {
					t.Fatal(err)
				}
				if st := ex.Stats(); st.ScopedGroupsCopied == 0 {
					t.Error("report spliced no constraint groups")
				}
				return sb.String()
			}

			widths := []int{runtime.GOMAXPROCS(0)}
			if tc.matrix {
				widths = []int{1, 2, 8}
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			want := report()
			for _, procs := range widths {
				runtime.GOMAXPROCS(procs)
				if got := report(); got != want {
					t.Errorf("GOMAXPROCS=%d: report differs from the one-worker report", procs)
				}
			}
		})
	}
}
