// Command asmp-serve runs the simulation as a long-lived HTTP/JSON
// service: clients POST run and sweep requests or GET rendered figures,
// and the daemon answers from the same deterministic core as the CLIs —
// coalescing identical concurrent requests, enforcing per-request
// deadlines, shedding load when saturated and draining gracefully on
// SIGTERM. See internal/server for the resilience envelope and
// README.md for curl examples.
//
// Usage:
//
//	asmp-serve -addr 127.0.0.1:8377 -cache-dir /var/cache/asmp
//	curl -s localhost:8377/v1/figure/2a?quick=1
//	curl -s -X POST localhost:8377/v1/sweep \
//	    -d '{"workload":"specjbb","configs":["4f-0s"],"runs":3}'
//
// With -cache-dir (or $ASMP_CACHE_DIR), every completed cell is
// published to the disk result cache, so the result cache warms a
// restarted daemon: it answers previously computed and interrupted
// sweeps and figures byte-identically, simulating only the cells no
// earlier process finished.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asmp/internal/cli"
	"asmp/internal/server"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(runWith(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is the testable entry point for flag handling: it parses args,
// writes to the given streams and returns the process exit code without
// installing signal handlers.
func run(args []string, stdout, stderr io.Writer) int {
	return runWith(args, stdout, stderr, nil)
}

// runWith is run with the channel that delivers shutdown signals. The
// daemon serves until a signal arrives, then drains and exits 0.
func runWith(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := cli.NewFlagSet("asmp-serve", stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks a free port, printed on stderr)")
		host         = cli.HostFlags(fs)
		queue        = fs.Int("queue", 0, "admitted-but-not-executing request bound: 0 = 2x workers; a full queue sheds with 429")
		deadline     = fs.Duration("deadline", 30*time.Second, "default per-request wall deadline (requests may ask for less, or more up to -max-deadline)")
		maxDeadline  = fs.Duration("max-deadline", 5*time.Minute, "hard cap on any request's deadline")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "how long a drain lets in-flight work finish before cancelling it")
	)
	if !cli.Parse(fs, args) {
		return 2
	}
	if err := host.SetWorkers(); err != nil {
		fmt.Fprintln(stderr, "asmp-serve:", err)
		return 2
	}
	if *queue < 0 {
		fmt.Fprintf(stderr, "asmp-serve: -queue must be non-negative, got %d\n", *queue)
		return 2
	}
	if *deadline <= 0 {
		fmt.Fprintf(stderr, "asmp-serve: -deadline must be positive, got %v\n", *deadline)
		return 2
	}
	if *maxDeadline < *deadline {
		fmt.Fprintf(stderr, "asmp-serve: -max-deadline (%v) must be at least -deadline (%v)\n", *maxDeadline, *deadline)
		return 2
	}
	if *drainTimeout <= 0 {
		fmt.Fprintf(stderr, "asmp-serve: -drain-timeout must be positive, got %v\n", *drainTimeout)
		return 2
	}
	// The disk result cache survives daemon restarts (unlike the
	// in-memory memo), so a restarted daemon warm-hits cells its
	// predecessor simulated; /stats exposes the hit/miss/refused
	// counters.
	if err := host.AttachCache(); err != nil {
		fmt.Fprintln(stderr, "asmp-serve:", err)
		return 1
	}

	srv := server.New(server.Options{
		Workers:         host.Workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DrainTimeout:    *drainTimeout,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "asmp-serve: "+format+"\n", a...)
		},
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "asmp-serve:", err)
		return 1
	}
	// The resolved address (port 0 becomes concrete here) goes to stderr
	// so scripts and the smoke test can discover it.
	fmt.Fprintf(stderr, "asmp-serve: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "asmp-serve:", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stderr, "asmp-serve: %v: draining\n", s)
	}
	// Drain first: readiness flips, new work is refused with typed 503s,
	// in-flight work finishes (or is cancelled after -drain-timeout) and
	// every waiter gets its response. Then shut the HTTP layer down,
	// which waits for those responses to finish writing.
	if forced := srv.Drain(); forced > 0 {
		fmt.Fprintf(stderr, "asmp-serve: drain cancelled %d in-flight execution(s); with -cache-dir, the result cache warms a restart\n", forced)
	}
	if err := hs.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(stderr, "asmp-serve:", err)
		return 1
	}
	fmt.Fprintln(stderr, "asmp-serve: drained")
	return 0
}
