package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// FuzzServeQuery drives /explain and /diff bodies through the whole
// handler of one server with a short default timeout. Every request
// must answer 200, 400, 503 or 504, or 500 from an engine error, never
// from a recovered panic; must leave no session leased; and must leave
// /metrics decodable. A stream may abort after its first byte only
// once its deadline has passed, the streamed form of a 504. The seeds
// are the scenarios' problem texts with stream and nolift set and
// unset, a diff to a perturbed deployment, and truncated and mistyped
// JSON.
func FuzzServeQuery(f *testing.F) {
	for _, sc := range scenarios.All() {
		res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
		if err != nil {
			f.Fatal(err)
		}
		edited, _ := netgen.Perturb(res.Deployment, 1, 1)
		req := request{Topology: topology.Print(sc.Net), Configs: config.PrintDeployment(res.Deployment), Spec: spec.Print(sc.Spec)}
		for _, stream := range []bool{false, true} {
			for _, nolift := range []bool{false, true} {
				req.Stream, req.NoLift = stream, nolift
				f.Add(false, mustJSON(req))
			}
		}
		for _, nolift := range []bool{false, true} {
			req.Stream, req.NoLift, req.EditedConfigs = false, nolift, config.PrintDeployment(edited)
			body := mustJSON(req)
			f.Add(true, body)
			f.Add(true, body[:len(body)/2])
		}
	}
	for _, body := range []string{
		``,
		`{`,
		`[]`,
		`{"topology": 7, "configs": [], "spec": null}`,
		`{"topology": "router R1", "configs": "router R1", "spec": "x", "timeout_ms": "soon"}`,
		`{"topology": "router R1", "configs": "router R1", "spec": "x", "nolift": "yes", "stream": 1}`,
		`{"topology": "router R1", "configs": "router R1", "spec": "x", "edited_configs": 3}`,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}

	s := New(Options{DefaultTimeout: 2 * time.Second})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, diff bool, body []byte) {
		path := "/explain"
		if diff {
			path = "/diff"
		}
		// The request's deadline is the server's, set first, so it has
		// passed whenever the server's has.
		var req request
		json.Unmarshal(body, &req)
		ctx, cancel := context.WithTimeout(context.Background(), s.timeoutFor(&req))
		defer cancel()
		w := httptest.NewRecorder()
		if serve(h, w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)) && ctx.Err() == nil {
			t.Fatalf("%s aborted a stream before its deadline: %s", path, w.Body.String())
		}
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		case http.StatusInternalServerError:
			if strings.Contains(w.Body.String(), "internal error:") {
				t.Fatalf("%s answered a recovered panic: %s", path, w.Body.String())
			}
		default:
			t.Fatalf("%s answered %d: %s", path, w.Code, w.Body.String())
		}
		if g := s.pool.Gauges(); g.Leased != 0 {
			t.Fatalf("%s left %d sessions leased", path, g.Leased)
		}
		var m Metrics
		if err := json.Unmarshal(get(h, "/metrics").Body.Bytes(), &m); err != nil {
			t.Fatalf("/metrics after %s: %v", path, err)
		}
	})
}

// serve runs one request through h and reports whether the handler
// aborted it (http.ErrAbortHandler: a stream that failed after its
// first byte), which net/http's server would turn into a dropped
// connection.
func serve(h http.Handler, w http.ResponseWriter, r *http.Request) (aborted bool) {
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			aborted = true
		}
	}()
	h.ServeHTTP(w, r)
	return false
}
