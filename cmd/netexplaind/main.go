// netexplaind serves the explanation pipeline over HTTP: a JSON API
// (POST /explain, POST /diff, GET /metrics, GET /healthz) backed by a
// pool of warm engine sessions and a content-addressed response cache.
//
//	netexplaind -addr :8080
//	netexplaind -addr :8080 -maxinflight 32 -timeout 30s -proof
//
// SIGTERM or SIGINT shuts the server down gracefully: it stops
// accepting connections, lets requests in flight finish (for at most
// 30 s), and exits 0. A second signal during the drain kills it.
//
// Request and response shapes are documented in internal/server and
// the README's netexplaind section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Connection timeouts of the serving http.Server: a client that never
// finishes its request headers, or leaves a keep-alive connection idle,
// is disconnected instead of holding the connection forever. Request
// handling itself is bounded by the per-request deadline. A shutdown
// waits at most shutdownTimeout for requests in flight to finish.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 30 * time.Second
)

// testOnListen, when set by a test, is called with the bound address
// and the serving *http.Server once the listener is up.
var testOnListen func(addr string, srv *http.Server)

// run is main with the process glue factored out. Exit codes follow
// the shared cmd convention: 0 success (clean shutdown), 1 operational
// failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fs := flag.NewFlagSet("netexplaind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	maxInflight := fs.Int("maxinflight", 16, "maximum concurrently admitted explain/diff requests")
	cacheSize := fs.Int("cachesize", 256, "response cache entries (content-addressed; -1 disables)")
	poolSize := fs.Int("poolsize", 16, "warm session pool entries (LRU-evicted)")
	timeout := fs.Duration("timeout", 2*time.Minute, "default per-request deadline when the request sets none")
	maxTimeout := fs.Duration("maxtimeout", 0, "clamp for requested deadlines (0 = same as -timeout)")
	maxLiftWorkers := fs.Int("maxliftworkers", 8, "clamp for per-request lift_workers")
	proof := fs.Bool("proof", false, "verify every Unsat verdict with the independent proof checker")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "netexplaind: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *maxInflight < 1 || *poolSize < 1 || *maxLiftWorkers < 1 {
		fmt.Fprintln(stderr, "netexplaind: -maxinflight, -poolsize, and -maxliftworkers must be at least 1")
		return 2
	}
	if *timeout <= 0 {
		fmt.Fprintln(stderr, "netexplaind: -timeout must be positive")
		return 2
	}

	srv := server.New(server.Options{
		MaxInflight:       *maxInflight,
		ResponseCacheSize: *cacheSize,
		PoolSize:          *poolSize,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxLiftWorkers:    *maxLiftWorkers,
		VerifyProofs:      *proof,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "netexplaind:", err)
		return 1
	}
	fmt.Fprintf(stdout, "netexplaind: listening on %s\n", l.Addr())
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(l) }()
	if testOnListen != nil {
		go testOnListen(l.Addr().String(), httpSrv)
	}
	select {
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "netexplaind:", err)
			return 1
		}
		return 0
	case <-sig.Done():
	}
	stop() // a second signal kills the process
	fmt.Fprintln(stdout, "netexplaind: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
		fmt.Fprintln(stderr, "netexplaind: shutdown:", err)
		return 1
	}
	return 0
}
