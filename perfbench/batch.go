package main

// The batch-eval workload: in process, no server.  Each pass runs a fixed
// suite of generated paper programs through parser.Parse → analyze.Program
// → ldl1.NewFromAST → Engine.RunCtx, then answers point queries through
// the magic-sets rewrite (Engine.QueryCtx under WithMagic).

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"ldl1"
	"ldl1/internal/analyze"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

// batchProgram is one program of the suite with its expected model.
type batchProgram struct {
	name   string
	src    string
	expect map[string]int // model cardinality per predicate, from a reference computation
	facts  []string       // facts the model must contain, from a reference computation
	magic  []string       // point queries answered through magic sets
}

// newBatchSuite generates the suite.  Expected cardinalities come from
// direct computations over the generated data, never from the engine.
func newBatchSuite(seed int64) []*batchProgram {
	rng := rand.New(rand.NewSource(seed))
	var suite []*batchProgram

	// Linear recursion: ancestor pairs of a random tree.  Point queries
	// ask for the descendants of two next-to-last-level nodes and for the
	// ancestors of one node per level from depth 3 down, so answer sizes
	// barely depend on the seed.  (The root's descendants through magic
	// sets took 25 times as long as evaluating the whole program.)
	t := randomTree(768, rng)
	anc := &batchProgram{
		name: "ancestor",
		src: treeProgram(t, `anc(X, Y) <- parent(X, Y).
anc(X, Z) <- parent(X, Y), anc(Y, Z).
`),
		expect: map[string]int{"anc": t.ancestorPairs()},
		magic:  pointQueries(rng, "anc(n%d, Y)", t.levels[len(t.levels)-2], 2),
	}
	for _, level := range t.levels[3:] {
		anc.magic = append(anc.magic, pointQueries(rng, "anc(X, n%d)", level, 1)...)
	}
	suite = append(suite, anc)

	// Same generation: distinct nodes of equal depth.
	t = randomTree(192, rng)
	sg := 0
	for _, level := range t.levels[1:] {
		sg += len(level) * (len(level) - 1)
	}
	suite = append(suite, &batchProgram{
		name: "samegen",
		src: treeProgram(t, `sg(X, Y) <- parent(Z, X), parent(Z, Y), X != Y.
sg(X, Y) <- parent(Z1, X), sg(Z1, Z2), parent(Z2, Y).
`),
		expect: map[string]int{"sg": sg},
		magic:  pointQueries(rng, "sg(n%d, Y)", t.levels[len(t.levels)-1], 4),
	})

	// Stratified negation: the complement of ancestor over node pairs.
	t = randomTree(96, rng)
	n := len(t.parent)
	suite = append(suite, &batchProgram{
		name: "nonancestor",
		src: treeProgram(t, `anc(X, Y) <- parent(X, Y).
anc(X, Z) <- parent(X, Y), anc(Y, Z).
nonanc(X, Y) <- node(X), node(Y), not anc(X, Y).
`),
		expect: map[string]int{"anc": t.ancestorPairs(), "nonanc": n*n - t.ancestorPairs()},
		magic:  pointQueries(rng, "nonanc(n%d, Y)", t.levels[len(t.levels)-1], 2),
	})

	// Grouping and part-cost get no magic point queries: the engine's
	// magic rewrite answers theirs wrongly (TestMagicOverGrouping).
	suite = append(suite, groupingProgram(rng, 512, 32))
	suite = append(suite, bookDealProgram(rng, 24, 100))

	// Complex head terms (LDL1.5 §4.2): nested grouping, compiled away.
	teachers := 64
	suite = append(suite, &batchProgram{
		name: "headterms",
		src: `out(T, <h(S, <D>)>) <- r(T, S, C, D).
` + workload.TeacherSchedule(teachers, 4, 3, rng.Int63()).String(),
		expect: map[string]int{"out": teachers},
		magic:  pointQueries(rng, "out(t%d, S)", keyRange(teachers), 2),
	})

	suite = append(suite, partCostProgram())
	return suite
}

func treeProgram(t *tree, rules string) string {
	var b strings.Builder
	b.WriteString(rules)
	t.writeFacts(&b)
	return b.String()
}

// pointQueries draws k point queries over k distinct keys from keys.  The
// keys are drawn without replacement because the engine caches answers: a
// repeated query would be a cache hit, and a seed's timed work would then
// depend on whether its draw repeated a key.
func pointQueries(rng *rand.Rand, form string, keys []int, k int) []string {
	out := make([]string, 0, k)
	for _, i := range rng.Perm(len(keys))[:k] {
		out = append(out, fmt.Sprintf(form, keys[i]))
	}
	return out
}

// keyRange returns 0..n-1.
func keyRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// groupingProgram groups each supplier's parts into a set and joins
// suppliers on set equality.  Suppliers share catalogues of four parts,
// each catalogue used by the same number of suppliers.
func groupingProgram(rng *rand.Rand, suppliers, catalogues int) *batchProgram {
	cats := make([][]int, catalogues)
	for i := range cats {
		cats[i] = rng.Perm(40)[:4]
		sort.Ints(cats[i])
	}
	assign := rng.Perm(suppliers)
	var b strings.Builder
	b.WriteString(`supplies(S, <P>) <- sp(S, P).
same(S1, S2) <- supplies(S1, Ps), supplies(S2, Ps), S1 != S2.
`)
	groups := map[string]int{}
	for s := 0; s < suppliers; s++ {
		c := cats[assign[s]%catalogues]
		groups[fmt.Sprint(c)]++
		for _, p := range c {
			fmt.Fprintf(&b, "sp(s%d, p%d).\n", s, p)
		}
	}
	same := 0
	for _, k := range groups {
		same += k * (k - 1)
	}
	return &batchProgram{
		name:   "grouping",
		src:    b.String(),
		expect: map[string]int{"supplies": suppliers, "same": same},
	}
}

// bookDealProgram is the paper's §1 set enumeration: every set of at most
// three books (a book may be picked twice) whose prices sum below limit.
// Prices are spread evenly over 5..60 and dealt to titles at random, so
// the number of deals does not depend on the seed.
func bookDealProgram(rng *rand.Rand, books, limit int) *batchProgram {
	price := make([]int, books)
	for i, j := range rng.Perm(books) {
		price[j] = 5 + i*55/(books-1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), Px + Py + Pz < %d.\n", limit)
	for i, p := range price {
		fmt.Fprintf(&b, "book(b%d, %d).\n", i, p)
	}
	sets := map[[3]int]bool{}
	for x := range price {
		for y := range price {
			for z := range price {
				if price[x]+price[y]+price[z] < limit {
					// A deal is the set of its distinct books.
					k := []int{x, y, z}
					sort.Ints(k)
					key := [3]int{-1, -1, -1}
					n := 0
					for i, b := range k {
						if i == 0 || b != k[i-1] {
							key[n] = b
							n++
						}
					}
					sets[key] = true
				}
			}
		}
	}
	return &batchProgram{name: "bookdeal", src: b.String(), expect: map[string]int{"book_deal": len(sets)}}
}

// partCostProgram is the paper's §1 part-cost program over the bill of
// materials of depth 2 and fanout 2; bottom-up partition is exponential
// in the number of costed parts, so the BOM stays this small.
func partCostProgram() *batchProgram {
	db := workload.BOM(2, 2)
	sub := map[int64][]int64{}
	cost := map[int64]int64{}
	for _, f := range db.Facts() {
		a, b := int64(f.Args[0].(term.Int)), int64(f.Args[1].(term.Int))
		if f.Pred == "p" {
			sub[a] = append(sub[a], b)
		} else {
			cost[a] = b
		}
	}
	var total func(p int64) int64
	total = func(p int64) int64 {
		if c, ok := cost[p]; ok {
			return c
		}
		var s int64
		for _, c := range sub[p] {
			s += total(c)
		}
		return s
	}
	prog := &batchProgram{
		name: "partcost",
		src: `part(P, <S>) <- p(P, S).
tc({X}, C) <- q(X, C).
tc({X}, C) <- part(X, S), tc(S, C).
tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.
result(X, C) <- tc(S, C), member(X, S), S = {X}.
` + db.String(),
	}
	parts := map[int64]bool{}
	for _, f := range db.Facts() {
		parts[int64(f.Args[0].(term.Int))] = true
		if f.Pred == "p" {
			parts[int64(f.Args[1].(term.Int))] = true
		}
	}
	for p := range parts {
		prog.facts = append(prog.facts, fmt.Sprintf("result(%d, %d)", p, total(p)))
	}
	sort.Strings(prog.facts)
	prog.expect = map[string]int{"result": len(parts)}
	return prog
}

// passStats is what one pass over the suite measured.
type passStats struct {
	wall       time.Duration
	run        time.Duration // time inside Engine.RunCtx
	reads      []time.Duration
	derived    map[string]int // Stats.Derived of each program's RunCtx
	stats      ldl1.Stats     // RunCtx counters summed over the suite
	magicStats ldl1.Stats     // magic-query counters summed over the suite
	modelFacts int
	stages     map[string]time.Duration // per-layer time, summed over the suite
}

// stage times one call into a layer, recording a span under parent when
// tracing.
func stage(tr *tracer, parent int, name string, ps *passStats, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	ps.stages[name] += end.Sub(start)
	if tr != nil {
		tr.record(tr.newID(), parent, name, start, end)
	}
	return err
}

// runPass evaluates every program of the suite once and checks its model
// and magic answers.  keep, when non-nil, receives each program's model.
func runPass(ctx context.Context, suite []*batchProgram, tr *tracer, o *outcome, keep func(*store.DB)) (*passStats, error) {
	ps := &passStats{derived: map[string]int{}, stages: map[string]time.Duration{}}
	passID := 0
	if tr != nil {
		passID = tr.newID()
	}
	start := time.Now()
	for _, bp := range suite {
		var unit *parser.Unit
		if err := stage(tr, passID, "parser.program", ps, func() (err error) {
			unit, err = parser.Parse(bp.src)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", bp.name, err)
		}
		var diags []analyze.Diagnostic
		_ = stage(tr, passID, "analyze.vet", ps, func() error {
			diags = analyze.Program(unit.Program, unit.Queries, analyze.Options{})
			return nil
		})
		for _, d := range diags {
			if d.Severity == analyze.Error {
				return nil, fmt.Errorf("%s: vet: %v", bp.name, d)
			}
		}
		st := &ldl1.Stats{}
		var eng *ldl1.Engine
		if err := stage(tr, passID, "ldl1.compile", ps, func() (err error) {
			eng, err = ldl1.NewFromAST(unit.Program, ldl1.WithStats(st), ldl1.WithMagic(true))
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", bp.name, err)
		}
		var m *ldl1.Model
		if err := stage(tr, passID, "eval.run", ps, func() (err error) {
			m, err = eng.RunCtx(ctx)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", bp.name, err)
		}
		ps.derived[bp.name] = st.Derived
		ps.stats.Merge(st)
		ps.modelFacts += m.Len()
		checkModel(bp, m, o)
		runStats := *st
		for _, q := range bp.magic {
			var a *ldl1.Answers
			t0 := time.Now()
			if err := stage(tr, passID, "magic.query", ps, func() (err error) {
				a, err = eng.QueryCtx(ctx, q)
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", bp.name, q, err)
			}
			ps.reads = append(ps.reads, time.Since(t0))
			checkMagic(bp.name, q, a, m.DB(), o)
		}
		magic := *st
		subStats(&magic, &runStats)
		ps.magicStats.Merge(&magic)
		if keep != nil {
			keep(m.DB())
		}
	}
	ps.wall = time.Since(start)
	ps.run = ps.stages["eval.run"]
	if tr != nil {
		tr.record(passID, 0, "batch.pass", start, start.Add(ps.wall))
	}
	return ps, nil
}

// subStats subtracts b's counters from a.
func subStats(a, b *ldl1.Stats) {
	a.Iterations -= b.Iterations
	a.Derived -= b.Derived
	a.Firings -= b.Firings
	a.IndexHits -= b.IndexHits
	a.FullScans -= b.FullScans
	a.PlansReordered -= b.PlansReordered
}

func checkModel(bp *batchProgram, m *ldl1.Model, o *outcome) {
	for pred, want := range bp.expect {
		if got := m.DB().Card(pred); got != want {
			o.fail("%s: model has %d %s facts, reference %d", bp.name, got, pred, want)
		}
	}
	for _, f := range bp.facts {
		if ok, err := m.Contains(f); err != nil || !ok {
			o.fail("%s: model lacks %s", bp.name, f)
		}
	}
}

// checkMagic compares a magic-sets answer with the matching filter of the
// full model: the facts of the query's predicate that agree with its
// constants, projected onto its variables.
func checkMagic(name, q string, a *ldl1.Answers, db *store.DB, o *outcome) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		o.fail("%s: %s: %v", name, q, err)
		return
	}
	lit := query.Body[0]
	var want []string
	for _, f := range db.Rel(lit.Pred).All() {
		binding := map[term.Var]term.Term{}
		match := true
		for i, arg := range lit.Args {
			if v, ok := arg.(term.Var); ok {
				if prev, seen := binding[v]; seen && term.Compare(prev, f.Args[i]) != 0 {
					match = false
				}
				binding[v] = f.Args[i]
			} else if term.Compare(arg, f.Args[i]) != 0 {
				match = false
			}
		}
		if match {
			row := make([]string, len(a.Vars))
			for i, v := range a.Vars {
				row[i] = binding[term.Var(v)].String()
			}
			want = append(want, strings.Join(row, "\x1f"))
		}
	}
	got := make([]string, len(a.Rows))
	for i, r := range rowsOf(a) {
		got[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\x1e") != strings.Join(want, "\x1e") {
		o.fail("%s: magic %s gave %d rows, full-model filter %d", name, q, len(got), len(want))
	}
}

// batchSetup generates the suite and runs one checked warm-up pass, whose
// derived counts every later pass must reproduce.
func batchSetup(ctx context.Context, seed int64, o *outcome) ([]*batchProgram, *passStats, error) {
	suite := newBatchSuite(seed)
	ps, err := runPass(ctx, suite, nil, o, nil)
	return suite, ps, err
}

// passLoop runs checked samples for dur.  A sample is reps back-to-back
// passes folded by fasterOf: with reps 2, host interference (CPU steal)
// shorter than a pass lands in at most one of the two executions and is
// filtered out.  Each pass starts after a forced collection, so every
// pass begins from the same heap state instead of wherever the previous
// pass left the collector's cycle.
func passLoop(ctx context.Context, suite []*batchProgram, ref *passStats, tr *tracer, dur time.Duration, reps int, o *outcome) ([]*passStats, error) {
	var out []*passStats
	end := time.Now().Add(dur)
	for len(out) == 0 || time.Now().Before(end) {
		var sample *passStats
		for r := 0; r < reps; r++ {
			runtime.GC()
			ps, err := runPass(ctx, suite, tr, o, nil)
			if err != nil {
				return nil, err
			}
			for name, d := range ps.derived {
				if d != ref.derived[name] {
					o.fail("%s: pass derived %d facts, warm-up pass %d", name, d, ref.derived[name])
				}
			}
			o.attempted += int64(len(suite) + len(ps.reads))
			if sample == nil {
				sample = ps
			} else {
				sample.fasterOf(ps)
			}
		}
		out = append(out, sample)
	}
	return out, nil
}

// fasterOf keeps, for each timed operation, the faster of p's and q's
// executions of it.  Both passes ran the same suite, so their reads line
// up and their counters agree.
func (p *passStats) fasterOf(q *passStats) {
	p.wall = min(p.wall, q.wall)
	p.run = min(p.run, q.run)
	for i := range p.reads {
		p.reads[i] = min(p.reads[i], q.reads[i])
	}
}

func runBatch(cfg *runConfig) (*outcome, error) {
	if cfg.trace {
		return traceBatch(cfg)
	}
	ctx := context.Background()
	o := &outcome{values: map[string]float64{}}
	var setup []time.Duration
	var suite []*batchProgram
	var ref *passStats
	for r := 0; r < setupReps; r++ {
		// Each set-up starts from the same heap state, as passLoop's
		// passes do, so the peak below does not depend on where the
		// collector's cycle happened to stand.
		runtime.GC()
		start := time.Now()
		var err error
		suite, ref, err = batchSetup(ctx, cfg.seed, o)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start))
	}
	// The peak RSS of set-up, whose warm passes do the measured work;
	// over the longer window the peak mostly records collector lag when
	// the host steals CPU.
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	// The window is cut into batchWriteRounds segments, each followed by
	// one write round, so the rounds lie seconds apart.
	var passes []*passStats
	var rounds [][]time.Duration
	for r := 0; r < batchWriteRounds; r++ {
		ps, err := passLoop(ctx, suite, ref, nil, seconds(cfg.seconds/batchWriteRounds), 2, o)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps...)
		lat, err := batchWrites(ctx, cfg.seed, o)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, lat)
	}
	// Each transaction's latency is its fastest over the rounds: every
	// round replays the same stream from the same state, and a steal burst
	// of a few seconds hits at most one round's copy of a transaction.
	writes := rounds[0]
	for _, lat := range rounds[1:] {
		for i := range writes {
			writes[i] = min(writes[i], lat[i])
		}
	}
	// Every pass figure is the median over batchWindows consecutive groups
	// of samples of the group's figure: a steal burst spoils a group or
	// two, not the median.
	group := func(f func(ps []*passStats) float64) float64 {
		return overWindows(len(passes), batchWindows, func(lo, hi int) float64 { return f(passes[lo:hi]) })
	}
	walls := func(ps []*passStats) (out []time.Duration) {
		for _, p := range ps {
			out = append(out, p.wall)
		}
		return out
	}
	reads := func(ps []*passStats) (out []time.Duration) {
		for _, p := range ps {
			out = append(out, p.reads...)
		}
		return out
	}
	o.values["setup_s"] = percentile(setup, 50).Seconds()
	o.values["read_rps"] = group(func(ps []*passStats) float64 {
		var elapsed time.Duration
		for _, p := range ps {
			elapsed += p.wall
		}
		return float64(len(reads(ps))) / elapsed.Seconds()
	})
	o.values["read_p50_ms"] = group(func(ps []*passStats) float64 { return ms(percentile(reads(ps), 50)) })
	o.values["read_p99_ms"] = group(func(ps []*passStats) float64 { return ms(percentile(reads(ps), 99)) })
	o.values["write_p50_ms"] = ms(percentile(writes, 50))
	o.values["write_p90_ms"] = ms(percentile(writes, 90))
	o.values["peak_rss_mb"] = rss
	o.values["batch_pass_p50_ms"] = group(func(ps []*passStats) float64 { return ms(percentile(walls(ps), 50)) })
	o.values["batch_pass_p90_ms"] = group(func(ps []*passStats) float64 { return ms(percentile(walls(ps), 90)) })
	o.values["eval_facts_per_s"] = group(func(ps []*passStats) float64 {
		var derived int
		var run time.Duration
		for _, p := range ps {
			derived += p.stats.Derived
			run += p.run
		}
		return float64(derived) / run.Seconds()
	})
	return o, nil
}

// batchWriteNodes sizes the tree of batch-eval's write phase,
// batchWriteTxs is the number of transactions a write round applies, and
// batchWriteRounds is the number of rounds.  batchWindows is the number of
// sample groups the pass figures take their median over.
const (
	batchWriteNodes  = 1024
	batchWriteTxs    = 400
	batchWriteRounds = 3
	batchWindows     = 6
)

// batchWrites materializes the served program over a small tree in
// process and applies batchWriteTxs update transactions back to back.  It
// then checks the maintained model against a from-scratch evaluation of
// the final EDB.
func batchWrites(ctx context.Context, seed int64, o *outcome) ([]time.Duration, error) {
	runtime.GC()
	in := newServeInput(seed, batchWriteNodes)
	eng, err := ldl1.New(in.program)
	if err != nil {
		return nil, err
	}
	mv, err := eng.Materialize()
	if err != nil {
		return nil, err
	}
	s := newWriteStream(in)
	lat := make([]time.Duration, 0, batchWriteTxs)
	for i := 0; i < batchWriteTxs; i++ {
		w := s.Next()
		start := time.Now()
		if _, err := mv.UpdateCtx(ctx, w.assert, w.retract); err != nil {
			return nil, fmt.Errorf("batch write %s: %w", w.kind, err)
		}
		lat = append(lat, time.Since(start))
	}
	o.attempted += batchWriteTxs
	ref, err := ldl1.New(serveRules + finalEDB(in, s))
	if err != nil {
		return nil, err
	}
	m, err := ref.Run()
	if err != nil {
		return nil, err
	}
	if !mv.Model().DB().Equal(m.DB()) {
		o.fail("batch write phase: maintained model (%d facts) differs from from-scratch model (%d facts)", mv.Model().Len(), m.Len())
	}
	return lat, nil
}
