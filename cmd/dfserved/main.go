// dfserved is the sweep service daemon: a long-running HTTP server that
// accepts sweep specs, dedups them by fingerprint against a persistent
// job store, runs their points with in-process runners and/or remote
// pull workers, and serves records, aggregated series and CSV — with
// results byte-identical to a local dfsweep run of the same spec.
//
// Server mode (auth-free; bind localhost or a trusted network):
//
//	dfserved -listen 127.0.0.1:8080 -store /var/lib/dfserved
//	curl -d '{"mechanisms":["MIN"],"loads":[0.1,0.2]}' localhost:8080/api/jobs
//	curl localhost:8080/api/jobs/job-1            # poll status
//	curl localhost:8080/api/jobs/job-1/csv        # byte-identical to dfsweep -csv
//
// Worker mode (point the same binary at a server; add hosts at will):
//
//	dfserved -worker http://server:8080 -name host2
//
// See GET / on a running server for the full endpoint table.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dragonfly/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("dfserved", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "server bind address (the daemon is auth-free: keep it on localhost or a trusted network)")
	store := fs.String("store", "", "job store directory for checkpoints and the submission journal (empty: memory only)")
	local := fs.Int("local", 0, "in-process point runners (0: GOMAXPROCS, -1: none — dispatch to remote workers only)")
	leaseTTL := fs.Duration("lease-ttl", time.Minute, "lease lifetime before a silent worker's points are re-leased")
	worker := fs.String("worker", "", "run as a pull worker against this server URL instead of serving")
	name := fs.String("name", "", "worker name (default: hostname-pid)")
	batch := fs.Int("batch", 4, "worker: maximum points per lease")
	poll := fs.Duration("poll", 500*time.Millisecond, "worker: idle wait between empty lease attempts")
	jobs := fs.Int("jobs", 0, "worker: concurrent simulations per batch (0: pool width)")
	quiet := fs.Bool("quiet", false, "suppress per-event log lines")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *worker != "" {
		if *name == "" {
			host, _ := os.Hostname()
			*name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		w := &serve.Worker{
			Server: *worker,
			Name:   *name,
			Batch:  *batch,
			TTL:    *leaseTTL,
			Poll:   *poll,
			Jobs:   *jobs,
			Logf:   logf,
		}
		logf("dfserved: worker %s pulling from %s", *name, *worker)
		if err := w.Run(ctx); err != nil {
			fatal(err)
		}
		return
	}

	mgr, err := serve.NewManager(serve.Options{
		StoreDir:     *store,
		LocalRunners: *local,
		LeaseTTL:     *leaseTTL,
		Logf:         logf,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := serve.NewServer(mgr.Handler())
	fmt.Printf("dfserved: serving on http://%s/ (store: %s)\n", ln.Addr(), storeDesc(*store))
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx) //nolint:errcheck
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	if err := mgr.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "dfserved: shut down")
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfserved:", err)
	os.Exit(1)
}
