// Command ltpserved is the campaign service: a long-running HTTP/JSON
// server that executes simulations and sweep campaigns on
// one shared LPT worker pool with a content-addressed result cache, so
// identical requests — and identical cells inside overlapping
// campaigns — are computed once and served from cache thereafter.
//
// With -coordinator it instead fronts a fleet of ltpserved workers:
// the same service, whose cache misses run on the fleet — each batch
// group (or lone cell) placed by content address (consistent hashing
// with LPT spill), work stranded by a dead or hung worker retried on
// the surviving ring — so the client API is unchanged from a single
// node.
//
// Examples:
//
//	ltpserved -addr :8080
//	ltpserved -addr 127.0.0.1:0 -parallel 8 -cache 16384
//	ltpserved -coordinator -addr :8080 -workers http://w1:8081,http://w2:8081
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/run -d '{"scenario":"hashjoin","max_insts":200000}'
//	curl -s -X POST 'localhost:8080/v1/sweep?stream=1' -d '{"base":{"scenario":"hashjoin","scale":0.1,"max_insts":50000},
//	  "axes":[{"name":"seed","replicate":true,"points":[{"name":"s0","patch":{"seed":0}},{"name":"s1","patch":{"seed":1}}]}]}'
//
// See API.md for the endpoint and schema reference, DESIGN.md §8 for
// the service architecture and §13 for the sharded fabric.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ltp/internal/fabric"
	"ltp/internal/server"
)

// drainable is the slice of server.Server / fabric.Coordinator the
// drain path needs.
type drainable interface {
	Handler() http.Handler
	Shutdown(ctx context.Context)
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations on a worker or single node (0 = NumCPU; a coordinator's is its fleet's)")
		cacheN     = flag.Int("cache", 0, "result-cache entries (0 = default 4096)")
		storePath  = flag.String("store", "", "persistent result-store file (empty = in-memory cache only); results survive restarts — a restarted coordinator serves stored cells without the fleet")
		maxWarm    = flag.Uint64("max-warm", 0, "per-run warm-up instruction limit (0 = default 10M)")
		maxInsts   = flag.Uint64("max-insts", 0, "per-run detailed instruction limit (0 = default 10M)")
		maxJobs    = flag.Int("max-jobs", 0, "max concurrently active campaigns (0 = default 16)")
		tenantJobs = flag.Int("tenant-jobs", 0, "max concurrently active campaigns per tenant, on any node, worker or coordinator (X-LTP-Tenant header; 0 = max-jobs)")
		runTimeout = flag.Float64("run-timeout", 0, "per-request /v1/run wall-clock limit in seconds (0 = default 300; negative disables)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM before active campaigns are cancelled")
		quiet      = flag.Bool("q", false, "suppress per-request logging")

		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator instead of a worker (requires -workers)")
		workers     = flag.String("workers", "", "comma-separated worker base URLs for -coordinator (e.g. http://w1:8081,http://w2:8081)")
		retries     = flag.Int("retries", 0, "coordinator: per-batch dispatch attempts across worker losses (0 = 3)")
		hang        = flag.Duration("hang-timeout", 0, "coordinator: sever a silent worker batch stream after this long (0 = 2m)")
		poll        = flag.Duration("poll", 0, "coordinator: worker health/stats poll interval (0 = 2s)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "ltpserved: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}
	scfg := server.Config{
		Parallelism:  *parallel,
		CacheEntries: *cacheN,
		StorePath:    *storePath,
		Limits: server.Limits{
			MaxWarmInsts:      *maxWarm,
			MaxDetailInsts:    *maxInsts,
			MaxActiveJobs:     *maxJobs,
			MaxTenantJobs:     *tenantJobs,
			RunTimeoutSeconds: *runTimeout,
		},
		Logf: logf,
	}

	var svc drainable
	if *coordinator {
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			logger.Fatalf("-coordinator requires -workers (comma-separated base URLs)")
		}
		coord, err := fabric.New(fabric.Config{
			Workers:       urls,
			Limits:        scfg.Limits,
			StorePath:     scfg.StorePath,
			CacheEntries:  scfg.CacheEntries,
			Logf:          scfg.Logf,
			RetryAttempts: *retries,
			HangTimeout:   *hang,
			PollInterval:  *poll,
		})
		if err != nil {
			logger.Fatalf("%v", err)
		}
		logger.Printf("coordinator fronting %d workers", len(urls))
		svc = coord
	} else {
		srv, err := server.New(scfg)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		svc = srv
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	// The resolved address line is machine-readable on purpose: the
	// smoke harnesses (scripts/servesmoke, scripts/fabricsmoke) parse
	// it to find a port 0 assignment.
	logger.Printf("listening on %s", ln.Addr())
	fmt.Printf("listening on %s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := <-sigCh
		logger.Printf("received %v, draining (budget %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop accepting requests and finish the in-flight ones...
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		// ...then drain the campaigns: wait out the budget's remainder,
		// cancel whatever is still running (queued cells never
		// simulate, in-flight ones abort mid-pipeline), and release the
		// engine.
		svc.Shutdown(ctx)
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatalf("serve: %v", err)
	}
	// Serve returns the moment Shutdown is called; wait for the full
	// drain before exiting.
	<-drained
	logger.Printf("drained, bye")
}
