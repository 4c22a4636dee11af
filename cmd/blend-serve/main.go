// Command blend-serve exposes one indexed data lake over HTTP: the
// discovery service counterpart of the in-process API. It loads (or
// builds) an AllTables index once, then answers the versioned JSON API
//
//	POST   /v1/query        execute a declarative plan-JSON document
//	POST   /v1/seek         execute one standalone seeker
//	POST   /v1/sql          raw SQL over the AllTables relation
//	GET    /v1/stats        index statistics + ingest/cache counters
//	POST   /v1/tables       ingest: CSV upload (text/csv, ?name=) or
//	                        server-side dir ingest (JSON {"dir": …};
//	                        requires -allow-dir-ingest)
//	GET    /v1/tables/{id}  reconstruct one indexed table
//	DELETE /v1/tables/{id}  remove (tombstone) one table
//	POST   /v1/compact      reclaim removed tables' index space
//	GET    /healthz         liveness probe
//
// with per-request contexts and timeouts, concurrent request handling
// over the (optionally sharded) store, and structured JSON errors
// carrying the library's typed error codes. Ingestion publishes
// copy-on-write generation snapshots, so it is safe while queries are
// being served — readers never block on writers.
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// Usage:
//
//	blend-serve -index lake.blend [-addr :8080] [-timeout 30s] [-workers N] [-cache N]
//	blend-serve -lake DIR [-shards N] ...
//	blend-serve ... [-allow-dir-ingest] [-ingest-batch N]
//
// An -index file is memory-mapped and its shards decode on first touch;
// ingest parses and inserts GOMAXPROCS-wide.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blend"
	"blend/internal/berr"
	"blend/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "blend-serve: error[%s]: %v\n", blend.ErrorCodeOf(err), err)
		if errors.Is(err, blend.ErrBadRequest) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("blend-serve", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{})
	index := fs.String("index", "", "index file built by `blend index`")
	lake := fs.String("lake", "", "directory of CSV tables to index at startup (alternative to -index)")
	shards := fs.Int("shards", 1, "hash-partition a -lake index across N shards")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request execution bound (0 = none)")
	workers := fs.Int("workers", 0, "run every plan on the concurrent scheduler with this worker bound (0 = sequential unless the request opts in)")
	cache := fs.Int("cache", 512, "seeker result cache entries, invalidated on index mutation (0 = disabled)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain period")
	allowDirIngest := fs.Bool("allow-dir-ingest", false, "allow POST /v1/tables to bulk-load CSV directories from the server's filesystem (off by default: it lets any client read server-side CSV files)")
	ingestBatch := fs.Int("ingest-batch", 0, "tables per atomic ingest commit batch (0 = library default)")
	noNative := fs.Bool("no-native", false, "force the SQL interpreter for every seeker (A/B against path=native in /v1/query explain output)")
	retain := fs.Int("retain", 0, "generations kept addressable for as_of_generation time travel (0 = library default)")
	wal := fs.String("wal", "", "write-ahead log file: replayed at startup, appended per mutation (crash recovery between saves)")
	if err := fs.Parse(args); err != nil {
		return berr.New(berr.CodeBadRequest, "serve.flags", "%v", err)
	}
	if fs.NArg() > 0 {
		return berr.New(berr.CodeBadRequest, "serve.flags", "unexpected arguments %q", fs.Args())
	}

	d, err := openLake(*index, *lake, *shards, *noNative)
	if err != nil {
		return err
	}
	if *cache > 0 {
		d.SetResultCache(*cache)
	}
	if *retain > 0 {
		d.SetRetention(*retain)
	}
	if *wal != "" {
		closeWAL, err := d.EnableWAL(*wal)
		if err != nil {
			return err
		}
		defer closeWAL()
		log.Printf("write-ahead log at %s (generation %d after replay)", *wal, d.Generation())
	}
	st := d.Stats()
	if st.MappedBytes > 0 {
		log.Printf("serving %d tables across %d shard(s), %d bytes mapped (%d/%d shards resident), result cache %d entries",
			d.LiveTables(), d.NumShards(), st.MappedBytes, st.ResidentShards, st.Shards, *cache)
	} else {
		log.Printf("serving %d tables across %d shard(s), ~%d index bytes, result cache %d entries",
			d.LiveTables(), d.NumShards(), d.IndexSizeBytes(), *cache)
	}

	svc := service.New(d, service.Options{
		DefaultTimeout:  *timeout,
		MaxWorkers:      *workers,
		AllowDirIngest:  *allowDirIngest,
		IngestBatchSize: *ingestBatch,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining for up to %v", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("bye")
	return nil
}

// openLake resolves the serving lake from -index or -lake.
func openLake(index, lake string, shards int, noNative bool) (*blend.Discovery, error) {
	var opts []blend.IndexOption
	if noNative {
		opts = append(opts, blend.WithoutNativeExec())
	}
	switch {
	case index != "" && lake != "":
		return nil, berr.New(berr.CodeBadRequest, "serve.flags", "-index and -lake are mutually exclusive")
	case index != "":
		return blend.OpenIndex(index, opts...)
	case lake != "":
		return blend.IndexCSVDir(blend.ColumnStore, lake, append(opts, blend.WithShards(shards))...)
	default:
		return nil, berr.New(berr.CodeBadRequest, "serve.flags", "one of -index or -lake is required")
	}
}
