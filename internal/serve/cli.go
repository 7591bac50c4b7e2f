package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"loas/internal/obs"
)

// CLI is the loasd daemon entry point, shared by the loasd binary and
// the `loas serve` subcommand. It parses flags, binds the listener,
// serves until SIGINT/SIGTERM, then shuts down gracefully: the HTTP
// server stops accepting, in-flight requests finish, and the job queue
// drains.
func CLI(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loasd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8086", "listen address")
	cacheMB := fs.Int64("cache-mb", 64, "result cache bound (MiB); 0 disables caching")
	ttl := fs.Duration("ttl", 0, "result TTL (0 = entries never expire)")
	workers := fs.Int("workers", 0, "synthesis workers (0 = all CPUs)")
	queue := fs.Int("queue", 64, "queued jobs beyond the workers before shedding load")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-request synthesis timeout")
	batchMax := fs.Int("batch-max", 4096, "maximum items in one POST /v1/batch request")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	ledgerPath := fs.String("ledger", "", "append every completed run to this JSONL ledger (off by default); replayed into /v1/runs on start")
	ledgerMB := fs.Int64("ledger-mb", 8, "ledger size (MiB) that triggers rotation to <path>.1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cacheBytes := *cacheMB << 20
	if *cacheMB <= 0 {
		cacheBytes = -1
	}
	var ledger *obs.Ledger
	if *ledgerPath != "" {
		var err error
		ledger, err = obs.OpenLedger(*ledgerPath, obs.LedgerOptions{MaxBytes: *ledgerMB << 20})
		if err != nil {
			return err
		}
		defer ledger.Close()
	}
	srv := New(Config{
		CacheBytes:    cacheBytes,
		TTL:           *ttl,
		Workers:       *workers,
		QueueDepth:    *queue,
		Timeout:       *timeout,
		BatchMaxItems: *batchMax,
		EnablePprof:   *pprofOn,
		Ledger:        ledger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(out, "loasd listening on http://%s (workers %d, queue %d, cache %d MiB, ttl %s)\n",
		ln.Addr(), srv.pool.Stats().Workers, *queue, *cacheMB, *ttl)
	if ledger != nil {
		fmt.Fprintf(out, "loasd: run ledger %s (%d records replayed, next run seq %d)\n",
			*ledgerPath, len(ledger.History()), ledger.LastSeq()+1)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "loasd: shutting down, draining in-flight work")
	sctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	err = hs.Shutdown(sctx)
	srv.Close()
	fmt.Fprintf(out, "loasd: %d requests (%d cache hits, %d dedup, %d backend runs)\n",
		srv.requests.Load(), srv.cache.Stats().Hits, srv.flight.Joined(), srv.backendRuns.Load())
	return err
}
