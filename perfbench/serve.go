package main

// The serve workloads: an ldl1d process built from the tree, preloaded
// with the generated program and driven over loopback by the Go client.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ldl1"
	"ldl1/client"
)

const (
	// dbName is the database the served program is admitted under.
	dbName = "tree"
	// serveClients is the number of concurrent client connections; the
	// benchmark host has two cores.
	serveClients = 2
	// setupReps is how many times a run sets up: the serve workloads boot
	// and admit the server (the last boot serves the measured window),
	// batch-eval generates its suite and runs a warm-up pass.  setup_s is
	// the median.
	setupReps = 20
	// mixedRate is serve-mixed's offered load in ops/s, about 40% of the
	// mix's closed-loop capacity on a 2-core host (NOTES.md records the
	// measurement).
	mixedRate = 150
	// mixedWriteShare is the fraction of serve-mixed ops that are writes.
	mixedWriteShare = 0.1
	// probeWrites is the number of closed-loop writes serve-read issues
	// after its read window, so it reports write latency on an idle server.
	probeWrites = 100
)

// daemon is one ldl1d process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *syncBuffer
	done chan struct{} // closed once the process has exited
}

// syncBuffer collects the daemon's log output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots ldl1d on a free loopback port with the program file
// admitted as dbName, and returns once /healthz answers — the boot plus
// admission time the caller measures.
func startDaemon(bin, programPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{base: "http://" + addr, log: &syncBuffer{}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-db", dbName+"="+programPath)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.done)
	}()
	c := client.New(d.base, &http.Client{Timeout: time.Second})
	deadline := time.Now().Add(150 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		names, err := c.Health(ctx)
		cancel()
		if err == nil && len(names) == 1 && names[0] == dbName {
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("ldl1d exited during boot: %s", strings.TrimSpace(d.log.String()))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ldl1d not healthy after 150s: %s", strings.TrimSpace(d.log.String()))
		}
	}
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

var materializedPat = regexp.MustCompile(`materialized in ([0-9.]+[a-zµ]+)\)`)

// admission is the daemon's own timing of Server.Load (parse, vet,
// compile, materialize), from its boot log.
func (d *daemon) admission() (time.Duration, error) {
	m := materializedPat.FindStringSubmatch(d.log.String())
	if m == nil {
		return 0, fmt.Errorf("no admission time in ldl1d log: %q", d.log.String())
	}
	return time.ParseDuration(m[1])
}

// newClient returns a client with its own connection pool, sized for the
// benchmark's concurrent clients.  When traced, each request carries the
// id of the client span that issued it, so the server's handler span can
// name it as parent.
func newClient(base string, traced bool) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	var rt http.RoundTripper = tr
	if traced {
		rt = spanTransport{tr}
	}
	return client.New(base, &http.Client{Transport: rt, Timeout: 60 * time.Second}), tr
}

// rowsOf renders an engine answer the way ldl1d does on the wire.
func rowsOf(a *ldl1.Answers) [][]string {
	out := make([][]string, len(a.Rows))
	for i, row := range a.Rows {
		out[i] = make([]string, len(row))
		for j, t := range row {
			if t == nil {
				out[i][j] = "_"
			} else {
				out[i][j] = t.String()
			}
		}
	}
	return out
}

// referenceAnswers evaluates program from scratch in process (Engine.Run,
// then each query over the model) and returns each query's signature.
func referenceAnswers(program string, queries []string) (map[string]answerSig, error) {
	eng, err := ldl1.New(program)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	out := make(map[string]answerSig, len(queries))
	for _, q := range queries {
		a, err := eng.Query(q)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q, err)
		}
		out[q] = sigOf(rowsOf(a))
	}
	return out, nil
}

// loopStats accumulates one client loop's measurements.
type loopStats struct {
	elapsed           time.Duration // window start to the last op's return
	read, write, lag  []time.Duration
	readAt            []time.Duration // each read's due (open loop) or send (closed loop) time, from the window start
	attempted, failed int64
	unsent            int64
	mismatches        []string
	inserted, deleted int
}

// perSecond is the median, over the window's whole seconds, of f applied
// to the latencies of the reads due (open loop) or sent (closed loop) in
// each second; a window shorter than a second gives f over all its reads.
// Host CPU steal arrives in bursts that stall every read for a few
// milliseconds.  A run-wide figure counts how many bursts a run happened
// to meet, while the typical second still shows the engine's own cost,
// including its tail, such as reads that overlap a write's collection.
func (s *loopStats) perSecond(f func([]time.Duration) float64) float64 {
	whole := int(s.elapsed / time.Second)
	if whole == 0 {
		return f(s.read)
	}
	secs := make([][]time.Duration, whole)
	for i, at := range s.readAt {
		if k := int(at / time.Second); k < whole {
			secs[k] = append(secs[k], s.read[i])
		}
	}
	vals := make([]float64, whole)
	for k, w := range secs {
		vals[k] = f(w)
	}
	sort.Float64s(vals)
	return vals[whole/2]
}

// readRate is completed reads per second of the window.
func (s *loopStats) readRate() float64 { return float64(len(s.read)) / s.elapsed.Seconds() }

func (s *loopStats) merge(o *loopStats) {
	s.read = append(s.read, o.read...)
	s.readAt = append(s.readAt, o.readAt...)
	s.write = append(s.write, o.write...)
	s.lag = append(s.lag, o.lag...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.unsent += o.unsent
	s.mismatches = append(s.mismatches, o.mismatches...)
	s.inserted += o.inserted
	s.deleted += o.deleted
}

// target executes client ops, recording a span around each when traced.
type target struct {
	c  *client.Client
	tr *tracer // nil when untraced
}

// do runs one op, checking a read against expect when it has an entry.
func (t target) do(ctx context.Context, o op, expect map[string]answerSig, st *loopStats) bool {
	if t.tr != nil {
		id := t.tr.newID()
		start := time.Now()
		defer func() {
			name := "client.write"
			if o.kind == opRead {
				name = "client.read"
			}
			t.tr.record(id, 0, name, start, time.Now())
		}()
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	if o.kind == opRead {
		res, err := t.c.Query(ctx, dbName, o.query, nil)
		if err != nil {
			st.failed++
			st.mismatches = append(st.mismatches, fmt.Sprintf("%s: %v", o.query, err))
			return false
		}
		if want, ok := expect[o.query]; ok {
			if got := sigOf(res.Rows); got != want {
				st.mismatches = append(st.mismatches, fmt.Sprintf("%s: got %d rows (hash %x), want %d (hash %x)", o.query, got.rows, got.hash, want.rows, want.hash))
			}
		}
		return true
	}
	res, err := t.c.Tx(ctx, dbName, o.assert, o.retract)
	if err != nil {
		st.failed++
		st.mismatches = append(st.mismatches, fmt.Sprintf("%s tx: %v", o.kind, err))
		return false
	}
	st.inserted += res.Inserted
	st.deleted += res.Deleted
	return true
}

// closedLoop runs one goroutine per stream for dur, each issuing its next
// op as soon as the previous returns; latency is call to return.
func closedLoop(ctx context.Context, t target, next []func() op, expect map[string]answerSig, dur time.Duration) *loopStats {
	total := &loopStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for _, nx := range next {
		wg.Add(1)
		go func(nx func() op) {
			defer wg.Done()
			st := &loopStats{}
			for time.Now().Before(end) {
				o := nx()
				sent := time.Now()
				st.attempted++
				ok := t.do(ctx, o, expect, st)
				if ok {
					lat := time.Since(sent)
					if o.kind == opRead {
						st.read = append(st.read, lat)
						st.readAt = append(st.readAt, sent.Sub(start))
					} else {
						st.write = append(st.write, lat)
					}
				}
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}(nx)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// drainGrace bounds how long after the window an open-loop client may
// still send ops that came due inside it.  An unsaturated server clears
// that backlog well within it; ops still unsent after it count as unsent.
const drainGrace = 2 * time.Second

// waitUntil returns at t: it sleeps until spinWindow before t, then
// yields until t, since a timer alone wakes the sender up to a
// millisecond late on a busy host.
func waitUntil(t time.Time) {
	if w := time.Until(t) - spinWindow; w > 0 {
		time.Sleep(w)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow is how long before an op's due time its sender stops
// sleeping and starts yielding.
const spinWindow = time.Millisecond

// openLoop runs one goroutine per generator, offering rates[i] ops/s from
// gens[i] for dur.  Each op is due at a fixed time; a client that falls
// behind sends its next op as soon as it can, and latency is measured from
// the due time, so a stall is charged to every op it delays.  How late
// each op was sent is recorded as generator lag.
func openLoop(ctx context.Context, t target, gens []func() op, rates []float64, dur time.Duration) *loopStats {
	total := &loopStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for i, gen := range gens {
		wg.Add(1)
		go func(gen func() op, rate float64) {
			defer wg.Done()
			st := &loopStats{}
			interval := time.Duration(float64(time.Second) / rate)
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * interval)
				if !due.Before(end) {
					break
				}
				waitUntil(due)
				sent := time.Now()
				if sent.After(end.Add(drainGrace)) {
					late := int64(end.Sub(due)/interval) + 1
					st.attempted += late
					st.unsent += late
					st.failed += late
					break
				}
				o := gen()
				st.attempted++
				if t.do(ctx, o, nil, st) {
					lat := time.Since(due)
					if o.kind == opRead {
						st.read = append(st.read, lat)
						st.readAt = append(st.readAt, due.Sub(start))
					} else {
						st.write = append(st.write, lat)
					}
				}
				st.lag = append(st.lag, sent.Sub(due))
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}(gen, rates[i])
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// serveSession is a booted, measured server ready for a workload window.
type serveSession struct {
	in        *serveInput
	d         *daemon
	c         *client.Client
	tr        *http.Transport
	setup     []time.Duration // boot + admission, per boot
	admit     []time.Duration // admission alone, per boot
	modelSize int             // model facts after admission
}

// bootServe generates the input, writes the program file and boots the
// server setupReps times, keeping the last boot running.
func bootServe(cfg *runConfig) (*serveSession, error) {
	if cfg.ldl1d == "" {
		return nil, errors.New("--ldl1d is required for the serve workloads")
	}
	in := newServeInput(cfg.seed, serveNodes)
	path := filepath.Join(cfg.workdir, fmt.Sprintf("serve-%d.ldl", cfg.seed))
	if err := os.WriteFile(path, []byte(in.program), 0o644); err != nil {
		return nil, err
	}
	s := &serveSession{in: in}
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		d, err := startDaemon(cfg.ldl1d, path)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, time.Since(start))
		a, err := d.admission()
		if err != nil {
			d.stop()
			return nil, err
		}
		s.admit = append(s.admit, a)
		if r < setupReps-1 {
			d.stop()
			continue
		}
		s.d = d
	}
	s.c, s.tr = newClient(s.d.base, false)
	st, err := s.c.Stats(context.Background())
	if err != nil {
		s.close()
		return nil, err
	}
	s.modelSize = st.Databases[dbName].ModelFacts
	return s, nil
}

func (s *serveSession) close() {
	s.tr.CloseIdleConnections()
	s.d.stop()
}

// setupValues fills the metrics every serve run derives from its boots:
// setup_s, the admission-time distribution (the server's batch pass over
// the served program) and the admission's derivation rate.  Admission
// samples are the faster of each pair of consecutive boots, which filters
// host interference shorter than a boot, as batch-eval's passes do.
func (s *serveSession) setupValues(v map[string]float64) {
	v["setup_s"] = percentile(s.setup, 50).Seconds()
	var admit []time.Duration
	for i := 0; i+1 < len(s.admit); i += 2 {
		admit = append(admit, min(s.admit[i], s.admit[i+1]))
	}
	p50 := percentile(admit, 50)
	v["batch_pass_p50_ms"] = ms(p50)
	v["batch_pass_p90_ms"] = ms(percentile(admit, 90))
	edb := 2*len(s.in.tree.parent) - 1
	v["eval_facts_per_s"] = float64(s.modelSize-edb) / p50.Seconds()
}

// statsDelta is the change of the server's /stats counters over a window.
type statsDelta struct {
	reads, writes, readErrors, writeErrors int64
	hits, misses, evictions                int64
	eval                                   map[string]int64
}

func statsDiff(a, b *client.Stats) statsDelta {
	x, y := a.Databases[dbName], b.Databases[dbName]
	d := statsDelta{
		reads: y.Reads - x.Reads, writes: y.Writes - x.Writes,
		readErrors: y.ReadErrors - x.ReadErrors, writeErrors: y.WriteErrors - x.WriteErrors,
		hits: int64(y.Cache.Hits - x.Cache.Hits), misses: int64(y.Cache.Misses - x.Cache.Misses),
		evictions: int64(y.Cache.Evictions - x.Cache.Evictions),
		eval:      map[string]int64{},
	}
	for k, v := range y.Eval {
		d.eval[k] = v - x.Eval[k]
	}
	return d
}

// crossCheck compares the server's own counters with the client's.
func crossCheck(o *outcome, d statsDelta, ls *loopStats) {
	if d.reads != int64(len(ls.read)) || d.writes != int64(len(ls.write)) {
		o.fail("server counted %d reads / %d writes, clients completed %d / %d", d.reads, d.writes, len(ls.read), len(ls.write))
	}
	if d.readErrors+d.writeErrors != ls.failed-ls.unsent {
		o.fail("server counted %d errors, clients saw %d", d.readErrors+d.writeErrors, ls.failed-ls.unsent)
	}
}

func (ls *loopStats) into(o *outcome) {
	o.attempted += ls.attempted
	o.failed += ls.failed
	for _, m := range ls.mismatches {
		o.fail("%s", m)
	}
}

func runServeRead(cfg *runConfig) (*outcome, error) {
	if cfg.trace {
		return traceServe(cfg, false)
	}
	s, err := bootServe(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	o := &outcome{values: map[string]float64{}}
	expect, err := referenceAnswers(s.in.program, s.in.queries)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	t := target{c: s.c}
	if err := warmRead(ctx, t, s.in.queries, expect, o); err != nil {
		return nil, err
	}

	before, err := s.c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	ls := closedLoop(ctx, t, readPickers(s.in, cfg.seed), expect, seconds(cfg.seconds))
	after, err := s.c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	d := statsDiff(before, after)
	crossCheck(o, d, ls)
	if d.misses != 0 {
		o.fail("serve-read window missed the answer cache %d times", d.misses)
	}
	ls.into(o)
	rss, err := peakRSSMB(s.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	wl := writeProbe(ctx, t, s.in)
	wl.into(o)
	o.values["read_rps"] = ls.perSecond(func(w []time.Duration) float64 { return float64(len(w)) })
	o.values["read_p50_ms"] = ls.perSecond(func(w []time.Duration) float64 { return ms(percentile(w, 50)) })
	o.values["read_p99_ms"] = ms(percentile(ls.read, 99))
	o.values["write_p50_ms"] = ms(percentile(wl.write, 50))
	o.values["write_p90_ms"] = ms(percentile(wl.write, 90))
	o.values["peak_rss_mb"] = rss
	s.setupValues(o.values)
	return o, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmRead asks every distinct query once, checking each answer and
// filling the answer cache.
func warmRead(ctx context.Context, t target, queries []string, expect map[string]answerSig, o *outcome) error {
	st := &loopStats{}
	for _, q := range queries {
		t.do(ctx, op{kind: opRead, query: q}, expect, st)
	}
	st.into(o)
	if st.failed > 0 {
		return fmt.Errorf("warm-up reads failed: %v", st.mismatches)
	}
	return nil
}

// readPickers returns one seeded query picker per client over the
// distinct read set.
func readPickers(in *serveInput, seed int64) []func() op {
	out := make([]func() op, serveClients)
	for i := range out {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		out[i] = func() op { return op{kind: opRead, query: in.queries[rng.Intn(len(in.queries))]} }
	}
	return out
}

// writeProbe issues probeWrites writes back to back from one client.
func writeProbe(ctx context.Context, t target, in *serveInput) *loopStats {
	w := newWriteStream(in)
	st := &loopStats{}
	for i := 0; i < probeWrites; i++ {
		o := w.Next()
		start := time.Now()
		st.attempted++
		if t.do(ctx, o, nil, st) {
			st.write = append(st.write, time.Since(start))
		}
	}
	return st
}

func runServeMixed(cfg *runConfig) (*outcome, error) {
	if cfg.trace {
		return traceServe(cfg, true)
	}
	s, err := bootServe(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	o := &outcome{values: map[string]float64{}}
	ctx := context.Background()
	t := target{c: s.c}
	reader, writer := mixedClients(s.in)

	before, err := s.c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	ls := runMixed(ctx, t, reader, writer, seconds(cfg.seconds))
	after, err := s.c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	crossCheck(o, statsDiff(before, after), ls)
	ls.into(o)
	if ls.unsent > 0 {
		o.fail("%d ops came due but were never sent: the offered rate saturates the server", ls.unsent)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed generator lag p99 %.3f ms, %d unsent\n", ms(percentile(ls.lag, 99)), ls.unsent)
	if err := checkFinal(ctx, s.c, s.in, writer, o); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(s.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	o.values["read_rps"] = ls.readRate()
	o.values["read_p50_ms"] = ms(percentile(ls.read, 50))
	o.values["read_p99_ms"] = ls.perSecond(func(w []time.Duration) float64 { return ms(percentile(w, 99)) })
	o.values["write_p50_ms"] = ms(percentile(ls.write, 50))
	o.values["write_p90_ms"] = ms(percentile(ls.write, 90))
	o.values["peak_rss_mb"] = rss
	s.setupValues(o.values)
	return o, nil
}

// mixedClients returns serve-mixed's two clients, each on its own
// connection so a read never queues behind a write on the client side: a
// reader drawing uniform random reads, and a writer.
func mixedClients(in *serveInput) (reader func() op, writer *writeStream) {
	rng := rand.New(rand.NewSource(in.seed*31 + 7))
	reader = func() op { return op{kind: opRead, query: randomRead(in, rng)} }
	return reader, newWriteStream(in)
}

// runMixed drives the mix open loop for dur at mixedRate ops/s,
// mixedWriteShare of them writes.
func runMixed(ctx context.Context, t target, reader func() op, writer *writeStream, dur time.Duration) *loopStats {
	rates := []float64{mixedRate * (1 - mixedWriteShare), mixedRate * mixedWriteShare}
	return openLoop(ctx, t, []func() op{reader, writer.Next}, rates, dur)
}

// checkFinal compares the server's final state with a from-scratch
// evaluation of the final EDB the streams produced: per-predicate model
// sizes, plus a fixed probe set of queries.
func checkFinal(ctx context.Context, c *client.Client, in *serveInput, w *writeStream, o *outcome) error {
	program := serveRules + finalEDB(in, w)
	probes := finalProbes(in, w)
	eng, err := ldl1.New(program)
	if err != nil {
		return err
	}
	m, err := eng.Run()
	if err != nil {
		return err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	for pred, n := range st.Databases[dbName].Facts {
		if want := len(m.Facts(pred)); n != want {
			o.fail("final state: server has %d %s facts, from-scratch model %d", n, pred, want)
		}
	}
	for _, q := range probes {
		a, err := eng.Query(q)
		if err != nil {
			return fmt.Errorf("reference %s: %w", q, err)
		}
		res, err := c.Query(ctx, dbName, q, nil)
		if err != nil {
			o.fail("final probe %s: %v", q, err)
			continue
		}
		if got, want := sigOf(res.Rows), sigOf(rowsOf(a)); got != want {
			o.fail("final probe %s: server %d rows, from-scratch %d (hashes %x/%x)", q, got.rows, want.rows, got.hash, want.hash)
		}
	}
	return nil
}

// finalProbes covers what the writes touched — moved nodes, their new
// parents, live leaves — plus the whole leaf set and seeded random reads.
func finalProbes(in *serveInput, w *writeStream) []string {
	probes := []string{"leaf(X)"}
	moved := make([]int, 0, len(w.moved))
	for c := range w.moved {
		moved = append(moved, c)
	}
	sort.Ints(moved)
	for _, c := range moved[:min(len(moved), 16)] {
		probes = append(probes, fmt.Sprintf("ancestor(X, n%d)", c), fmt.Sprintf("kids(n%d, S)", w.moved[c]), fmt.Sprintf("ancestor(n%d, Y)", c))
	}
	for _, l := range w.leaves[:min(len(w.leaves), 16)] {
		probes = append(probes, fmt.Sprintf("ancestor(X, w%d)", l), fmt.Sprintf("leaf(w%d)", l))
	}
	rng := rand.New(rand.NewSource(in.seed + 17))
	for i := 0; i < 32; i++ {
		probes = append(probes, randomRead(in, rng))
	}
	return probes
}
