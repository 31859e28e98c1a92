package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// TestRunUsageErrors pins the shared cmd convention: bad flags and
// stray positional arguments are usage errors (exit 2) and are
// rejected before any socket is opened.
func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"stray-arg"},
		{"-maxinflight", "0"},
		{"-poolsize", "-3"},
		{"-timeout", "-1s"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v): exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%v): usage error wrote to stdout: %q", args, out.String())
		}
	}
}

// TestRunListenFailure maps an unbindable address onto an operational
// failure (exit 1).
func TestRunListenFailure(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-addr", "256.0.0.1:0"}, &out, &errOut); code != 1 {
		t.Fatalf("bad addr: exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "netexplaind:") {
		t.Fatalf("stderr missing error: %q", errOut.String())
	}
}

// TestRunSetsServerTimeouts checks that the serving *http.Server bounds
// header reads and idle keep-alive connections, so a client that never
// finishes its headers cannot hold a connection forever.
func TestRunSetsServerTimeouts(t *testing.T) {
	got := make(chan [2]time.Duration, 1)
	testOnListen = func(_ string, srv *http.Server) {
		got <- [2]time.Duration{srv.ReadHeaderTimeout, srv.IdleTimeout}
		srv.Close()
	}
	defer func() { testOnListen = nil }()

	var out, errOut strings.Builder
	if code := run([]string{"-addr", "127.0.0.1:0"}, &out, &errOut); code != 0 {
		t.Fatalf("run: exit %d, want 0 (stderr: %s)", code, errOut.String())
	}
	if d := <-got; d[0] <= 0 || d[1] <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, IdleTimeout = %v; want both positive", d[0], d[1])
	}
}

// TestRunServesUntilClosed starts the daemon on an ephemeral port,
// checks /healthz and /metrics over real HTTP, and verifies a clean
// shutdown exits 0.
func TestRunServesUntilClosed(t *testing.T) {
	hookErr := make(chan error, 1)
	testOnListen = func(addr string, srv *http.Server) {
		defer srv.Close()
		hookErr <- func() error {
			client := &http.Client{Timeout: 10 * time.Second}
			resp, err := client.Get("http://" + addr + "/healthz")
			if err != nil {
				return err
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
				return fmt.Errorf("healthz: status %d body %q", resp.StatusCode, body)
			}
			resp, err = client.Get("http://" + addr + "/metrics")
			if err != nil {
				return err
			}
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("metrics: status %d body %q", resp.StatusCode, body)
			}
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				return fmt.Errorf("metrics not JSON: %v", err)
			}
			return nil
		}()
	}
	defer func() { testOnListen = nil }()

	var out, errOut strings.Builder
	if code := run([]string{"-addr", "127.0.0.1:0"}, &out, &errOut); code != 0 {
		t.Fatalf("run: exit %d, want 0 (stderr: %s)", code, errOut.String())
	}
	if err := <-hookErr; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Fatalf("stdout missing listen line: %q", out.String())
	}
}

// TestRunDrainsOnSignal sends the process SIGTERM while an /explain
// request is in flight: the daemon must stop accepting connections,
// still answer that request with a 200, and return 0.
func TestRunDrainsOnSignal(t *testing.T) {
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{
		"topology": topology.Print(sc.Net),
		"configs":  config.PrintDeployment(res.Deployment),
		"spec":     spec.Print(sc.Spec),
	})
	if err != nil {
		t.Fatal(err)
	}

	hookErr := make(chan error, 1)
	testOnListen = func(addr string, _ *http.Server) {
		signalled := false
		defer func() {
			if !signalled { // a setup failure must still end run
				syscall.Kill(os.Getpid(), syscall.SIGTERM)
			}
		}()
		hookErr <- func() error {
			// The request in flight: headers and half its body sent, so
			// its handler is running and blocked on the rest.
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return err
			}
			defer conn.Close()
			half := len(body) / 2
			fmt.Fprintf(conn, "POST /explain HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, len(body))
			if _, err := conn.Write(body[:half]); err != nil {
				return err
			}
			// Connections are accepted in order, so a request served on
			// a later connection proves the first one was accepted.
			client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
			resp, err := client.Get("http://" + addr + "/healthz")
			if err != nil {
				return err
			}
			resp.Body.Close()

			signalled = true
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				return err
			}
			// The drain has begun once the listener refuses connections.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					break
				}
				c.Close()
				if time.Now().After(deadline) {
					return fmt.Errorf("listener still accepting after SIGTERM")
				}
			}

			if _, err := conn.Write(body[half:]); err != nil {
				return err
			}
			resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				return fmt.Errorf("in-flight request: %w", err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(got), `"report"`) {
				return fmt.Errorf("in-flight request: status %d body %.200q", resp.StatusCode, got)
			}
			return nil
		}()
	}
	defer func() { testOnListen = nil }()

	var out, errOut strings.Builder
	if code := run([]string{"-addr", "127.0.0.1:0"}, &out, &errOut); code != 0 {
		t.Fatalf("run: exit %d, want 0 (stderr: %s)", code, errOut.String())
	}
	if err := <-hookErr; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("stdout missing shutdown line: %q", out.String())
	}
}
