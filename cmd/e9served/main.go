// Command e9served serves binary rewrites over HTTP: a concurrent
// front to the e9patch library with one bounded budget of worker leases,
// content-addressed result caching, singleflight coalescing and
// backpressure (see internal/server and DESIGN.md §7).
//
// Usage:
//
//	e9served                         # listen on 127.0.0.1:8233
//	e9served -addr :8233 -workers 8 -queue 128 -cache-mb 512
//
// API:
//
//	POST /v1/rewrite?match=EXPR[&action=PATCH&...]  body = ELF bytes
//	    match and action are e9tool's -M and -P (internal/lang), or
//	    spec=PROGRAM a whole spec file
//	    → 200 rewritten binary; X-E9-Stats (JSON), X-E9-Cache headers
//	    → 422 with line:column for a malformed match/action/spec
//	    → 429 + Retry-After under overload; 504 past the time budget
//	POST /v1/batch                                  body = NDJSON items
//	    {"id":..,"query":"match=..","binary":"<base64>","want":"binary|plan"}
//	    → 200 NDJSON results streamed in completion order, each
//	      with the status /v1/rewrite would answer (429 included)
//	GET  /healthz                                   liveness/drain
//	GET  /metrics                                   Prometheus text
//
// Clustering (-self/-peers) consistent-hashes cache keys across a
// static peer list: the front door routes each rewrite to its key's
// owner, peers fetch PatchPlans from owners over
// GET /internal/v1/plan/{key} instead of re-planning, and a down peer
// degrades to local handling (DESIGN.md §15).
//
// Examples:
//
//	curl -s --data-binary @input.bin \
//	    'localhost:8233/v1/rewrite?match=jcc+%26+short&action=empty' \
//	    -o patched.bin -D -
//
//	curl -s --data-binary @input.bin \
//	    'localhost:8233/v1/rewrite?match=addr=0x401005|addr=0x40100e&granularity=2' \
//	    -o patched.bin
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503, open
// requests get -drain time to finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"e9patch"
	"e9patch/internal/cluster"
	"e9patch/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8233", "listen address")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker leases: the most goroutines rewriting at once, jobs and their shard helpers together")
		queue     = flag.Int("queue", 64, "rewrite jobs that may wait for a worker lease (429 beyond this)")
		cacheMB   = flag.Int("cache-mb", 256, "result cache budget in MiB")
		planMB    = flag.Int("plan-cache-mb", 64, "plan cache budget in MiB (evicted results rematerialize from cached plans)")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-rewrite time budget (lease wait included)")
		maxBodyMB = flag.Int("max-body-mb", 64, "maximum request body in MiB")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGTERM")

		// Hostile-input hardening: per-rewrite resource limits (0
		// disables a bound). Violations answer 413/422/504 and are
		// counted per reason in e9served_rejected_total.
		maxTextMB    = flag.Int("max-text-mb", 0, "maximum .text section size in MiB (0: unlimited)")
		maxSites     = flag.Int("max-sites", 0, "maximum patch sites per rewrite (0: unlimited)")
		maxTrampMB   = flag.Int("max-tramp-mb", 0, "maximum emitted trampoline bytes in MiB (0: unlimited)")
		phaseTimeout = flag.Duration("phase-timeout", 0, "per-phase (disassembly, patching) deadline (0: unlimited)")

		// Clustering: a static peer list sharding the result/plan caches
		// by consistent hash. Both flags empty = single-node (default).
		self         = flag.String("self", "", "this node's advertised base URL, e.g. http://10.0.0.1:8233 (must appear in -peers; empty: single-node)")
		peersList    = flag.String("peers", "", "comma-separated base URLs of every cluster node, including -self")
		fetchTimeout = flag.Duration("peer-fetch-timeout", 2*time.Second, "peer plan-fetch timeout (a slow peer is a down peer)")
		peerCooldown = flag.Duration("peer-cooldown", time.Second, "how long a failed peer is skipped before being retried")
	)
	flag.Parse()

	var peers []string
	for _, p := range strings.Split(*peersList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	ccfg := cluster.Config{
		Self:         strings.TrimRight(*self, "/"),
		Peers:        peers,
		FetchTimeout: *fetchTimeout,
		Cooldown:     *peerCooldown,
	}
	if err := ccfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "e9served: %v\n", err)
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueLen:       *queue,
		CacheBytes:     int64(*cacheMB) << 20,
		PlanCacheBytes: int64(*planMB) << 20,
		Timeout:        *timeout,
		MaxBodyBytes:   int64(*maxBodyMB) << 20,
		Cluster:        ccfg,
		Limits: e9patch.Limits{
			MaxTextBytes:       int64(*maxTextMB) << 20,
			MaxPatchSites:      *maxSites,
			MaxTrampolineBytes: int64(*maxTrampMB) << 20,
			PhaseTimeout:       *phaseTimeout,
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e9served: %v\n", err)
		os.Exit(1)
	}
	// The exact line the smoke test (and humans with -addr :0) parse.
	fmt.Printf("e9served listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Println("e9served: draining")
		srv.BeginDrain()
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "e9served: shutdown: %v\n", err)
		}
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "e9served: %v\n", err)
		os.Exit(1)
	}
	<-done
	srv.Close()
	fmt.Println("e9served: bye")
}
