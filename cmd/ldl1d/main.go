// Command ldl1d is the LDL1 deductive-database server: a long-running
// HTTP/JSON service holding named materialized programs, serving
// lock-free snapshot reads to many concurrent clients while serializing
// assert/retract transactions through incremental view maintenance.
//
// Usage:
//
//	ldl1d [flags] [program.ldl ...]
//
// Each positional file loads as a database named after its basename
// (programs/family.ldl → "family"); -db name=path loads under an
// explicit name.  Programs are admitted through the static analyzer:
// error-severity diagnostics (unsafe rules, floundering bodies, ...)
// reject the load.
//
//	ldl1d -addr :8370 programs/family.ldl
//	curl -s localhost:8370/db/family/query -d '{"query": "ancestor(abe, W)"}'
//
// SIGINT/SIGTERM shut the server down gracefully: new requests are
// refused, in-flight requests drain for -grace, and whatever is still
// running after that is canceled through its context — reads stop with
// code canceled, writes roll back to the last published snapshot.
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ldl1/internal/server"
)

// Listener timeouts.  readHeaderTimeout bounds how long a client may take
// to send its request headers, so a connection that never finishes them
// is closed instead of held forever; idleTimeout closes keep-alive
// connections that sit unused between requests.  Neither bounds a
// request's evaluation — that is -deadline's job.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr      = flag.String("addr", ":8370", "listen address")
		deadline  = flag.Duration("deadline", 30*time.Second, "default per-request deadline (0 = none)")
		maxRows   = flag.Int("max-rows", 0, "default per-request answer-row limit (0 = none)")
		memBudget = flag.Int64("mem-budget", 0, "default per-request solution memory budget in bytes (0 = none)")
		maxDL     = flag.Duration("max-deadline", 0, "hard ceiling on per-request deadlines (0 = none)")
		txLimit   = flag.Int("tx-limit", 0, "max facts one write transaction may derive; breach rolls back (0 = none)")
		workers   = flag.Int("workers", 0, "evaluation workers for materialization and writes (0 = sequential)")
		admin     = flag.Bool("admin", false, "enable admin endpoints (load/drop databases, define prepared queries)")
		strict    = flag.Bool("strict", false, "reject programs with any vet diagnostic, warnings included")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown drain period before in-flight requests are canceled")
	)
	var loads []string
	flag.Func("db", "load a program as name=path (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		loads = append(loads, v)
		return nil
	})
	flag.Parse()

	srv := server.New(server.Config{
		Defaults:        server.Limits{Deadline: *deadline, MaxRows: *maxRows, MemBudget: *memBudget},
		Max:             server.Limits{Deadline: *maxDL},
		MaxDerivedPerTx: *txLimit,
		Workers:         *workers,
		AllowAdmin:      *admin,
		StrictVet:       *strict,
	})

	for _, arg := range flag.Args() {
		name := strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
		loads = append(loads, name+"="+arg)
	}
	for _, l := range loads {
		name, path, _ := strings.Cut(l, "=")
		src, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("ldl1d: %v", err)
		}
		start := time.Now()
		if err := srv.Load(name, string(src)); err != nil {
			log.Fatalf("ldl1d: load %s: %v", path, err)
		}
		log.Printf("ldl1d: loaded %q from %s (materialized in %v)", name, path, time.Since(start).Round(time.Millisecond))
	}
	if len(srv.Names()) == 0 && !*admin {
		log.Fatal("ldl1d: no programs loaded and -admin is off; nothing to serve")
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("ldl1d: shutting down, draining in-flight requests (grace %v)", *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			// Grace expired with requests still running: cancel their
			// contexts — evaluations abort cleanly (reads return code
			// canceled, writes roll back) — then close the listener.
			log.Printf("ldl1d: grace period expired, canceling in-flight requests")
			srv.Drain()
			_ = httpSrv.Close()
		}
		close(done)
	}()

	log.Printf("ldl1d: serving %v on %s", srv.Names(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ldl1d: %v", err)
	}
	<-done
	log.Printf("ldl1d: bye")
}
