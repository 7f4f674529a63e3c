package main

// The serve workloads' traced run.  It hosts server.Server in process
// behind httptest, so handler time is visible as a span under each client
// op span, and drives the same window once without spans to measure the
// tracing overhead.  It then replays the same seeded ops directly against
// an in-process ldl1.Materialized to time the engine's read and update
// calls.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ldl1"
	"ldl1/internal/analyze"
	"ldl1/internal/parser"
	"ldl1/internal/server"
	"ldl1/internal/store"
)

// spanKey carries a client op span's id in a request context; spanHeader
// carries it on the wire to the traced handler.
type spanKey struct{}

const spanHeader = "X-Perfbench-Span"

type spanTransport struct{ base http.RoundTripper }

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(id))
	}
	return s.base.RoundTrip(r)
}

// traceHandler records a server.handler span for every request that
// carries a client span id.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if parent, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			tr.record(tr.newID(), parent, "server.handler", start, time.Now())
		}
	})
}

// replayReads and replayOps bound the in-process replay.  serve-read's
// replay leaves out the write probe that follows its read window, so the
// incr metrics describe serve-read's measured window: no writes.
const (
	replayReads = 5000 // serve-read: cache-hit reads after one warm pass
	replayOps   = 600  // serve-mixed: the mix's reads and writes, 9:1
)

func traceServe(cfg *runConfig, mixed bool) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{values: layerValues()}
	v := o.values
	in := newServeInput(cfg.seed, serveNodes)
	tr := newTracer()
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		tr.record(tr.newID(), 0, name, start, time.Now())
		return err
	}

	// Admission, stage by stage, as Server.Load runs it.
	st := &ldl1.Stats{}
	var mv *ldl1.Materialized
	loaded, read, facts, err := storeBytes(func() ([]*store.DB, error) {
		var unit *parser.Unit
		if err := timed("parser.program", func() (err error) {
			unit, err = parser.Parse(in.program)
			return err
		}); err != nil {
			return nil, err
		}
		_ = timed("analyze.vet", func() error {
			for _, d := range analyze.Program(unit.Program, nil, analyze.Options{}) {
				if d.Severity == analyze.Error {
					return fmt.Errorf("vet: %v", d)
				}
			}
			return nil
		})
		var eng *ldl1.Engine
		if err := timed("ldl1.compile", func() (err error) {
			eng, err = ldl1.NewFromAST(unit.Program, ldl1.WithStats(st))
			return err
		}); err != nil {
			return nil, err
		}
		if err := timed("incr.materialize", func() (err error) {
			mv, err = eng.Materialize()
			return err
		}); err != nil {
			return nil, err
		}
		return []*store.DB{mv.Model().DB()}, nil
	})
	if err != nil {
		return nil, err
	}
	v["parser.program_ms"] = ms(percentile(tr.byName("parser.program"), 50))
	v["analyze.vet_ms"] = ms(percentile(tr.byName("analyze.vet"), 50))
	v["ldl1.compile_ms"] = ms(percentile(tr.byName("ldl1.compile"), 50))
	v["incr.materialize_ms"] = ms(percentile(tr.byName("incr.materialize"), 50))
	v["eval.run_ms"] = v["incr.materialize_ms"]
	evalValues(v, st, 1)
	v["store.model_facts"] = float64(facts)
	v["store.bytes_per_fact_loaded"] = loaded
	v["store.bytes_per_fact_read"] = read

	// The window is driven twice, each time for half the run on a freshly
	// admitted in-process server behind httptest: first plain, then with
	// the span-recording transport and handler.  The two windows run the
	// same seeded ops, so the difference of their median read latencies is
	// the tracing overhead.
	var expect map[string]answerSig
	if !mixed {
		if expect, err = referenceAnswers(in.program, in.queries); err != nil {
			return nil, err
		}
	}
	half := seconds(cfg.seconds / 2)
	plain, err := serveWindow(ctx, in, cfg.seed, mixed, expect, nil, half, o)
	if err != nil {
		return nil, err
	}
	traced, err := serveWindow(ctx, in, cfg.seed, mixed, expect, tr, half, o)
	if err != nil {
		return nil, err
	}
	d, ls := traced.delta, traced.ls
	v["server.admit_ms"] = ms(percentile(tr.byName("server.admit"), 50))
	v["server.reads"] = float64(d.reads)
	v["server.writes"] = float64(d.writes)
	v["server.read_errors"] = float64(d.readErrors)
	v["server.write_errors"] = float64(d.writeErrors)
	v["qcache.hit_ratio"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	v["qcache.evictions_per_write"] = ratio(float64(d.evictions), float64(d.writes))
	// Maintenance work per transaction, from the server's counters and the
	// UpdateResults the writes returned.
	writes := float64(d.writes)
	overest, rederived := float64(d.eval["deleted_overestimate"]), float64(d.eval["rederived"])
	v["incr.deleted_overestimate_per_tx"] = ratio(overest, writes)
	v["incr.rederived_per_tx"] = ratio(rederived, writes)
	v["incr.regrouped_per_tx"] = ratio(float64(d.eval["regrouped_classes"]), writes)
	v["incr.dred_precision"] = ratio(overest-rederived, overest)
	v["incr.net_facts_per_tx"] = ratio(float64(ls.inserted+ls.deleted), writes)
	handler := tr.byName("server.handler")
	v["server.handler_us_p50"] = us(percentile(handler, 50))
	v["server.handler_us_p99"] = us(percentile(handler, 99))
	v["client.overhead_us"] = us(percentile(tr.selfTimes("client.read"), 50))
	v["load.lag_p99_ms"] = ms(percentile(ls.lag, 99))
	v["load.unsent"] = float64(ls.unsent)
	pt := percentile(plain.ls.read, 50)
	v["trace.overhead_pct"] = 100 * float64(percentile(ls.read, 50)-pt) / float64(pt)

	// The replay: the same seeded ops against the in-process view.
	var ops []op
	if mixed {
		// The mix's reads and writes in their 9:1 proportion.
		reader, writer := mixedClients(in)
		for i := 0; i < replayOps; i++ {
			if i%10 == 9 {
				ops = append(ops, writer.Next())
			} else {
				ops = append(ops, reader())
			}
		}
	} else {
		for _, q := range in.queries {
			if _, err := mv.QueryOpts(ctx, q, ldl1.ReadOpts{}); err != nil {
				return nil, err
			}
		}
		pick := readPickers(in, cfg.seed)[0]
		for i := 0; i < replayReads; i++ {
			ops = append(ops, pick())
		}
	}
	if err := replay(ctx, mv, ops, expect, tr, v, o); err != nil {
		return nil, err
	}
	return o, tr.write(filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.jsonl", map[bool]string{false: "serve-read", true: "serve-mixed"}[mixed], cfg.seed)))
}

// window is what one driven window of the in-process server measured.
type window struct {
	ls    *loopStats
	delta statsDelta // the server's /stats over the window
}

// serveWindow admits the served program into a fresh in-process server,
// serves it behind httptest and drives it for dur as the untraced run
// drives ldl1d.  It then checks the clients' counts against /stats and,
// for the mix, the final state.  With a tracer, admission, every client op
// and every handler call are spanned, and the window's collector work is
// recorded in o.values.
func serveWindow(ctx context.Context, in *serveInput, seed int64, mixed bool, expect map[string]answerSig, tr *tracer, dur time.Duration, o *outcome) (*window, error) {
	srv := server.New(server.Config{Defaults: server.Limits{Deadline: 30 * time.Second}})
	start := time.Now()
	if err := srv.Load(dbName, in.program); err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		tr.record(tr.newID(), 0, "server.admit", start, time.Now())
		h = traceHandler(tr, srv)
	}
	hs := httptest.NewServer(h)
	defer hs.Close()
	c, transport := newClient(hs.URL, tr != nil)
	defer transport.CloseIdleConnections()
	if !mixed {
		if err := warmRead(ctx, target{c: c}, in.queries, expect, o); err != nil {
			return nil, err
		}
	}
	before, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	// Both windows start from a collected heap.
	runtime.GC()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	t := target{c: c, tr: tr}
	var ls *loopStats
	reader, writer := mixedClients(in)
	if mixed {
		ls = runMixed(ctx, t, reader, writer, dur)
	} else {
		ls = closedLoop(ctx, t, readPickers(in, seed), expect, dur)
	}
	if tr != nil {
		gcValues(o.values, &gc0)
	}
	after, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	d := statsDiff(before, after)
	crossCheck(o, d, ls)
	ls.into(o)
	if mixed {
		if err := checkFinal(ctx, c, in, writer, o); err != nil {
			return nil, err
		}
	}
	return &window{ls: ls, delta: d}, nil
}

// replay runs ops one at a time against the view, timing each engine call
// and counting its allocations, answer rows, cache effect and
// maintenance work; reads with an expect entry are checked.
func replay(ctx context.Context, mv *ldl1.Materialized, ops []op, expect map[string]answerSig, tr *tracer, v map[string]float64, o *outcome) error {
	var (
		md                           memDelta
		parse, hits, misses, applies []time.Duration
		readAllocs, readBytes, rows  uint64
		txAllocs, txBytes            uint64
	)
	for _, op := range ops {
		o.attempted++
		if op.kind == opRead {
			t0 := time.Now()
			if _, err := parser.ParseQuery(op.query); err != nil {
				return err
			}
			t1 := time.Now()
			parse = append(parse, t1.Sub(t0))
			tr.record(tr.newID(), 0, "parser.query", t0, t1)
			h0, _, _, _ := mv.CacheCounters()
			md.start()
			t0 = time.Now()
			a, err := mv.QueryOpts(ctx, op.query, ldl1.ReadOpts{})
			t1 = time.Now()
			allocs, bytes := md.stop()
			if err != nil {
				return fmt.Errorf("replay %s: %w", op.query, err)
			}
			h1, _, _, _ := mv.CacheCounters()
			name := "ldl1.read_miss"
			if h1 > h0 {
				name = "ldl1.read_hit"
				hits = append(hits, t1.Sub(t0))
			} else {
				misses = append(misses, t1.Sub(t0))
			}
			tr.record(tr.newID(), 0, name, t0, t1)
			readAllocs += allocs
			readBytes += bytes
			rows += uint64(a.Len())
			if want, ok := expect[op.query]; ok {
				if got := sigOf(rowsOf(a)); got != want {
					o.fail("replay %s: %d rows, reference %d", op.query, got.rows, want.rows)
				}
			}
			continue
		}
		md.start()
		t0 := time.Now()
		_, err := mv.UpdateCtx(ctx, op.assert, op.retract)
		t1 := time.Now()
		allocs, bytes := md.stop()
		if err != nil {
			return fmt.Errorf("replay %s: %w", op.kind, err)
		}
		tr.record(tr.newID(), 0, "incr.apply", t0, t1)
		applies = append(applies, t1.Sub(t0))
		txAllocs += allocs
		txBytes += bytes
	}
	reads, txs := float64(len(hits)+len(misses)), float64(len(applies))
	v["parser.query_us"] = us(percentile(parse, 50))
	v["ldl1.read_hit_us"] = us(percentile(hits, 50))
	v["ldl1.read_miss_us"] = us(percentile(misses, 50))
	v["ldl1.allocs_per_read"] = ratio(float64(readAllocs), reads)
	v["ldl1.bytes_per_read"] = ratio(float64(readBytes), reads)
	v["ldl1.rows_per_read"] = ratio(float64(rows), reads)
	v["incr.apply_p50_ms"] = ms(percentile(applies, 50))
	v["incr.apply_p90_ms"] = ms(percentile(applies, 90))
	v["incr.allocs_per_tx"] = ratio(float64(txAllocs), txs)
	v["incr.bytes_per_tx"] = ratio(float64(txBytes), txs)
	return nil
}
