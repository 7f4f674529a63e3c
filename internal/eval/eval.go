package eval

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"ldl1/internal/analyze/types"
	"ldl1/internal/ast"
	"ldl1/internal/builtin"
	"ldl1/internal/layering"
	"ldl1/internal/lderr"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Strategy selects the fixpoint algorithm within a layer.
type Strategy int

// Evaluation strategies.
const (
	// SemiNaive evaluates recursive rules against delta relations
	// (facts new in the previous iteration), the standard optimisation
	// of the naive R_i(M) iteration.
	SemiNaive Strategy = iota
	// Naive re-applies every rule to the whole database each iteration,
	// the literal R_{i+1}(M) = ∪ r(R_i(M)) ∪ R_i(M) of §3.2.
	Naive
)

// Stats collects evaluation counters.
type Stats struct {
	// Iterations counts inner fixpoint iterations across all layers.
	Iterations int
	// Derived counts facts newly added by rule application.
	Derived int
	// Firings counts successful rule-body solutions (including ones
	// whose head fact already existed).
	Firings int
	// IndexHits counts candidate probes answered by a (possibly
	// composite) column hash index on the compiled access path.
	IndexHits int
	// FullScans counts candidate scans that enumerated a relation: the
	// plan had no ground column for the literal, or the relation was
	// below store.IndexThreshold.
	FullScans int
	// DeletedOverestimate counts facts removed by the delete-and-rederive
	// overestimation step of incremental maintenance (internal/incr).
	DeletedOverestimate int
	// Rederived counts overestimated deletions resurrected because an
	// alternative derivation survived the transaction.
	Rederived int
	// RegroupedClasses counts ≡-equivalence classes of grouping rules
	// invalidated and regrouped by incremental maintenance.
	RegroupedClasses int
	// PlansReordered counts compiled body plans where the cost model chose
	// a different join order than the static most-bound-columns heuristic.
	PlansReordered int
	// EstimatedRows sums the cost model's per-step candidate estimates over
	// all compiled plans — the planner's view of how much work it scheduled.
	EstimatedRows int64
	// CacheHits counts engine queries answered from its answer cache
	// without any evaluation.
	CacheHits int
}

// Merge adds the counters of other into s — the single-threaded merge point
// for per-worker Stats of parallel maintenance rounds, mirroring how
// IndexHits/FullScans are flushed across evaluation workers.
func (s *Stats) Merge(other *Stats) {
	if s == nil || other == nil {
		return
	}
	s.Iterations += other.Iterations
	s.Derived += other.Derived
	s.Firings += other.Firings
	s.IndexHits += other.IndexHits
	s.FullScans += other.FullScans
	s.DeletedOverestimate += other.DeletedOverestimate
	s.Rederived += other.Rederived
	s.RegroupedClasses += other.RegroupedClasses
	s.PlansReordered += other.PlansReordered
	s.EstimatedRows += other.EstimatedRows
	s.CacheHits += other.CacheHits
}

// Options configures evaluation.
type Options struct {
	Strategy Strategy
	Stats    *Stats
	// Ctx, when non-nil, is checked at every fixpoint round boundary and
	// polled (cheaply, every few hundred firings) inside long joins: a
	// canceled context aborts evaluation promptly with lderr.Canceled (or
	// lderr.DeadlineExceeded after a deadline).  The abort is clean — the
	// input database of Eval is never mutated, and EvalGroups callers
	// discard the partially evaluated working database on error.
	Ctx context.Context
	// MemBudget, when positive, bounds the approximate bytes retained by
	// DERIVED facts (the input database is free) and aborts evaluation
	// with lderr.MemBudgetError beyond it — a resource guard complementing
	// MaxDerived for programs that derive few but enormous terms.
	MemBudget int64
	// Provenance, when non-nil, records a Derivation for every fact the
	// evaluation adds (including program facts), enabling Explain.
	Provenance *Provenance
	// MaxDerived, when positive, bounds the number of DERIVED facts —
	// facts newly added by rule application, not counting the input
	// database — and aborts evaluation with a LimitError once more than
	// MaxDerived facts have been derived.  The count and the semantics
	// are identical for sequential and parallel evaluation (Workers > 1
	// merely defers the check to the end of the round that overflows).
	// Useful as a termination guard for programs whose function symbols
	// can generate unbounded terms (the LDL1 universe U is infinite).
	MaxDerived int
	// Workers, when > 1, evaluates the rule applications of each fixpoint
	// round concurrently (derivations are buffered and merged between
	// rounds, so the computed model is unchanged).  Ignored when
	// Provenance is set.
	Workers int
	// NoReorder disables the cost-based join planner and falls back to the
	// static most-bound-columns literal order — the ablation switch for
	// benchmarks and for reproducing pre-cost plans.  The computed model is
	// identical either way; only the join schedule differs.
	NoReorder bool
	// Types, when non-nil, is the program's inferred type environment
	// (internal/analyze/types).  The cost-based planner uses it to price
	// statically impossible probes at zero and to prefer int-keyed index
	// paths on ties.  The computed model is unchanged — typing only informs
	// the join schedule.  Ignored under NoReorder.
	Types *types.Env
}

// LimitError reports that evaluation exceeded Options.MaxDerived.  It is
// an alias of lderr.LimitError, the engine-wide error taxonomy type.
type LimitError = lderr.LimitError

// Eval computes the standard minimal model M_n of the admissible program P
// with respect to the U-facts in edb (Theorem 1): facts are added to a copy
// of edb, then each layer L_i is evaluated to its fixpoint M_i = L_i(M_{i-1}).
// The input database is not modified.
func Eval(p *ast.Program, edb *store.DB, opts Options) (*store.DB, error) {
	if err := ast.CheckWellFormed(p); err != nil {
		return nil, err
	}
	lay, err := layering.Stratify(p)
	if err != nil {
		return nil, err
	}
	db := edb.Clone()
	if err := EvalGroups(lay.Rules, db, opts); err != nil {
		return nil, err
	}
	return db, nil
}

// EvalGroups evaluates rule groups in order, each to its fixpoint, against
// db (mutated in place).  Facts from every group are inserted first.  This
// is the layer-by-layer engine behind Eval; the magic-sets evaluator uses
// it directly with its own (non-admissible) group assignment, so no
// admissibility check is performed here.
func EvalGroups(groups [][]ast.Rule, db *store.DB, opts Options) error {
	for _, rules := range groups {
		for _, r := range rules {
			if !r.IsFact() {
				continue
			}
			f, err := factOfRule(r)
			if err != nil {
				return err
			}
			if db.Insert(f) && opts.Provenance != nil {
				opts.Provenance.record(&Derivation{Fact: f})
			}
		}
	}
	workers := opts.Workers
	if opts.Provenance != nil {
		workers = 1
	}
	ex := &exec{
		db: db, stats: opts.Stats, prov: opts.Provenance, deltaSlot: -1,
		maxDerived: opts.MaxDerived, memBudget: opts.MemBudget,
		ctx: opts.Ctx, breach: new(atomic.Bool), workers: workers,
		noReorder: opts.NoReorder, types: opts.Types,
	}
	for _, rules := range groups {
		if err := ex.checkCtx(); err != nil {
			return err
		}
		if err := ex.evalLayer(rules, opts.Strategy); err != nil {
			ex.flushAccessStats()
			return err
		}
	}
	ex.flushAccessStats()
	return nil
}

// PlanBody exposes the join planner: it orders the rule's body literals for
// left-to-right execution, optionally forcing one literal first and seeding
// the bound-variable set.  CompileBody additionally returns the bound-column
// analysis; the magic-sets compiler uses that to derive default sideways
// information passing strategies (§6).
func PlanBody(r ast.Rule, forcedFirst int, preBound map[term.Var]bool) ([]int, error) {
	p, err := planBody(r, forcedFirst, preBound)
	if err != nil {
		return nil, err
	}
	return p.order, nil
}

// applyHead evaluates the rule head under the bindings; a nil fact with a
// nil error means the binding is not applicable (head outside U, §3.2).
func applyHead(r ast.Rule, b *unify.Bindings) (*term.Fact, error) {
	f, err := unify.ApplyLit(r.Head, b)
	if err != nil {
		if errors.Is(err, unify.ErrOutsideU) {
			return nil, nil
		}
		return nil, fmt.Errorf("rule %q: %w", r.String(), err)
	}
	return f, nil
}

// applyHeadArgs applies the head arguments under b into dst (len(dst) ==
// arity), reporting false when the binding falls outside U (the rule does
// not fire, §3.2).  Evaluators use it with a reusable scratch slice so a
// firing that re-derives an existing fact allocates nothing: the scratch
// args feed Relation.GetArgs, and a Fact is built only for new facts.
func applyHeadArgs(r ast.Rule, b *unify.Bindings, dst []term.Term) (bool, error) {
	for i, a := range r.Head.Args {
		v, err := unify.Apply(a, b)
		if err != nil {
			if errors.Is(err, unify.ErrOutsideU) {
				return false, nil
			}
			return false, fmt.Errorf("rule %q: %w", r.String(), err)
		}
		dst[i] = v
	}
	return true, nil
}

func newBindings() *unify.Bindings { return unify.NewBindings() }

func factOfRule(r ast.Rule) (*term.Fact, error) {
	b := unify.NewBindings()
	f, err := unify.ApplyLit(r.Head, b)
	if err != nil {
		return nil, fmt.Errorf("fact %q: %w", r.Head.String(), err)
	}
	return f, nil
}

// exec is the evaluation context for one database.
type exec struct {
	db    *store.DB
	stats *Stats
	prov  *Provenance
	// delta, when non-nil, restricts one designated body occurrence to
	// the facts derived in the previous iteration.
	delta     *store.Relation
	deltaSlot int // index into the execution order, -1 when unused
	// trail holds the database facts matched by the literals of the
	// current join, for provenance.
	trail []*term.Fact
	// derivation limit bookkeeping.
	maxDerived int
	derived    int
	// memory budget bookkeeping: approximate bytes of derived facts.
	memBudget int64
	memUsed   int64
	// ctx, when non-nil, is checked at round boundaries and polled inside
	// joins; see Options.Ctx.
	ctx   context.Context
	polls uint
	// breach is shared between the merge thread and parallel workers: set
	// once a MaxDerived breach is certain, it lets in-flight workers stop
	// enumerating early.  It never changes the outcome — the flag is only
	// raised when the exact post-merge count is guaranteed past the limit.
	breach *atomic.Bool
	// roundBase is, in a parallel worker, the exact derived count at the
	// start of the round (worker-local facts are distinct and absent from
	// the shared database, so roundBase + locally-new > maxDerived proves
	// a breach regardless of cross-worker duplicates).
	roundBase int
	// workers > 1 enables parallel rounds.
	workers int
	// noReorder pins the static literal order; see Options.NoReorder.
	noReorder bool
	// types, when non-nil, refines cost-based planning; see Options.Types.
	types *types.Env
	// access-path counters, accumulated locally (workers have no stats
	// sink) and flushed into stats by EvalGroups / the round merge.
	idxHits   int
	fullScans int
}

// plan compiles a body plan for evaluation against ex.db: cost-based by
// default, static under Options.NoReorder.  Planner decisions are charged
// to the stats sink here — plans are always compiled on the merge thread,
// never inside parallel workers.
func (ex *exec) plan(r ast.Rule, forcedFirst int) (*bodyPlan, error) {
	db := ex.db
	if ex.noReorder {
		db = nil
	}
	p, err := planBodyDB(r, forcedFirst, nil, db, ex.types)
	if err != nil {
		return nil, err
	}
	if ex.stats != nil {
		if p.reordered {
			ex.stats.PlansReordered++
		}
		ex.stats.EstimatedRows += p.estRows
	}
	return p, nil
}

// replannable reports whether re-running the cost model against grown
// relations could ever change the plan: only when the body offers a choice,
// i.e. at least two positive database literals besides the forced delta
// occurrence.  Single-choice bodies (the overwhelmingly common case for
// rewrite-generated rules) are planned once and kept.
func replannable(r ast.Rule, forcedFirst int) bool {
	n := 0
	for i, l := range r.Body {
		if i == forcedFirst || l.Negated || layering.IsBuiltin(l.Pred) {
			continue
		}
		n++
	}
	return n >= 2
}

func (ex *exec) bumpIter() {
	if ex.stats != nil {
		ex.stats.Iterations++
	}
}

// flushAccessStats moves the local access-path counters into the stats
// sink, if any.
func (ex *exec) flushAccessStats() {
	if ex.stats != nil {
		ex.stats.IndexHits += ex.idxHits
		ex.stats.FullScans += ex.fullScans
	}
	ex.idxHits, ex.fullScans = 0, 0
}

// checkLimit enforces the resource guards — Options.MaxDerived against the
// derived-fact count and Options.MemBudget against the derived bytes.
func (ex *exec) checkLimit() error {
	if ex.maxDerived > 0 && ex.derived > ex.maxDerived {
		return &LimitError{Limit: ex.maxDerived}
	}
	if ex.memBudget > 0 && ex.memUsed > ex.memBudget {
		return &lderr.MemBudgetError{Budget: ex.memBudget}
	}
	return nil
}

// checkCtx maps a canceled/expired context to its taxonomy error; nil when
// no context is attached or it is still live.  Called at every round
// boundary, so a cancellation aborts the fixpoint within one round.
func (ex *exec) checkCtx() error {
	if ex.ctx == nil {
		return nil
	}
	return lderr.FromContext(ex.ctx)
}

// pollEvery is the firing interval of the in-join interrupt poll: frequent
// enough that one monster round (a grouping enumeration, a wide join)
// still aborts promptly, rare enough to stay off the profile.
const pollEvery = 256

// poll is the cheap in-join interrupt check: every pollEvery firings it
// consults the context and, in parallel workers, the shared breach flag.
func (ex *exec) poll() error {
	ex.polls++
	if ex.polls%pollEvery != 0 {
		return nil
	}
	if ex.breach != nil && ex.breach.Load() {
		return &LimitError{Limit: ex.maxDerived}
	}
	return ex.checkCtx()
}

// charge records one derived fact against the resource budgets.
func (ex *exec) charge(f *term.Fact) {
	ex.derived++
	if ex.memBudget > 0 {
		ex.memUsed += factBytes(f)
	}
}

// factBytes estimates the retained heap size of a fact: headers plus a
// structural walk of its arguments.  The estimate only needs to be
// monotone and roughly proportional — MemBudget is a runaway guard, not an
// accountant.
func factBytes(f *term.Fact) int64 {
	n := int64(48)
	for _, a := range f.Args {
		n += termBytes(a)
	}
	return n
}

func termBytes(t term.Term) int64 {
	switch t := t.(type) {
	case term.Int:
		return 16
	case term.Atom:
		return 16 + int64(len(t))
	case term.Str:
		return 16 + int64(len(t))
	case term.Var:
		return 16 + int64(len(t))
	case *term.Compound:
		n := int64(32 + len(t.Functor))
		for _, a := range t.Args {
			n += termBytes(a)
		}
		return n
	case *term.Set:
		n := int64(32)
		for _, e := range t.Elems() {
			n += termBytes(e)
		}
		return n
	}
	return 16
}

// evalLayer computes the fixpoint of one layer: grouping rules are applied
// once against the layer input (their bodies mention only lower layers, see
// Lemma 3.2.3), then the remaining rules run to fixpoint.
func (ex *exec) evalLayer(rules []ast.Rule, strat Strategy) error {
	var grouping, simple []ast.Rule
	for _, r := range rules {
		if r.IsFact() {
			continue // already inserted
		}
		if r.IsGroupingRule() {
			grouping = append(grouping, r)
		} else {
			simple = append(simple, r)
		}
	}
	for _, r := range grouping {
		if err := ex.applyGroupingRule(r); err != nil {
			return err
		}
	}
	if len(simple) == 0 {
		return nil
	}
	if strat == Naive {
		return ex.naiveFixpoint(simple)
	}
	return ex.semiNaiveFixpoint(simple)
}

func (ex *exec) naiveFixpoint(rules []ast.Rule) error {
	plans := make([]*bodyPlan, len(rules))
	for i, r := range rules {
		p, err := ex.plan(r, -1)
		if err != nil {
			return err
		}
		plans[i] = p
	}
	round, nextReplan := 0, 1
	for {
		if err := ex.checkCtx(); err != nil {
			return err
		}
		ex.bumpIter()
		// See semiNaiveFixpoint: refresh cost-based plans on geometrically
		// spaced rounds as the layer's relations grow.
		round++
		if !ex.noReorder && round == nextReplan {
			nextReplan *= 2
			for i, r := range rules {
				if !replannable(r, -1) {
					continue
				}
				p, err := ex.plan(r, -1)
				if err != nil {
					return err
				}
				plans[i] = p
			}
		}
		changed := false
		if ex.workers > 1 {
			tasks := make([]ruleTask, len(rules))
			for i, r := range rules {
				tasks[i] = ruleTask{rule: r, plan: plans[i], deltaSlot: -1}
			}
			facts, err := ex.runParallelRound(tasks, ex.workers)
			if err != nil {
				return err
			}
			if ex.mergeRound(facts, nil) > 0 {
				changed = true
			}
			if err := ex.checkLimit(); err != nil {
				return err
			}
		} else {
			for i, r := range rules {
				n, err := ex.applyRule(r, plans[i], nil)
				if err != nil {
					return err
				}
				if n > 0 {
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
}

// variant is a semi-naive rule variant: the rule with one recursive body
// occurrence designated as the delta occurrence.
type variant struct {
	rule ast.Rule
	dLit int       // body literal index bound to the delta relation
	plan *bodyPlan // compiled plan with dLit first; delta chunks share it
}

func (ex *exec) semiNaiveFixpoint(rules []ast.Rule) error {
	// Predicates defined in this layer (the recursive candidates).
	layerPreds := map[string]bool{}
	for _, r := range rules {
		layerPreds[r.Head.Pred] = true
	}
	var base []variant    // non-recursive rules, run once
	var recvars []variant // delta variants, run every iteration
	// Round-0 tasks, planned once here: every rule exactly once — each
	// recursive rule contributes one task regardless of how many delta
	// variants it has, so no per-variant dedup is needed later.
	var recRound0 []ruleTask
	for _, r := range rules {
		rec := false
		for i, l := range r.Body {
			if !l.Negated && layerPreds[l.Pred] {
				p, err := ex.plan(r, i)
				if err != nil {
					return err
				}
				recvars = append(recvars, variant{rule: r, dLit: i, plan: p})
				rec = true
			}
		}
		p, err := ex.plan(r, -1)
		if err != nil {
			return err
		}
		if rec {
			recRound0 = append(recRound0, ruleTask{rule: r, plan: p, deltaSlot: -1})
		} else {
			base = append(base, variant{rule: r, dLit: -1, plan: p})
		}
	}

	// Round 0: apply every rule once against the full database, recording
	// the new facts as the first delta.
	delta := map[string]*store.Relation{}
	record := func(f *term.Fact) {
		rel, ok := delta[f.Pred]
		if !ok {
			rel = store.NewRelation(f.Pred, ex.db.UseIndexes)
			delta[f.Pred] = rel
		}
		rel.Insert(f)
	}
	ex.bumpIter()
	round0 := make([]ruleTask, 0, len(base)+len(recRound0))
	for _, v := range base {
		round0 = append(round0, ruleTask{rule: v.rule, plan: v.plan, deltaSlot: -1})
	}
	round0 = append(round0, recRound0...)
	if ex.workers > 1 {
		facts, err := ex.runParallelRound(round0, ex.workers)
		if err != nil {
			return err
		}
		ex.mergeRound(facts, record)
		if err := ex.checkLimit(); err != nil {
			return err
		}
	} else {
		for _, t := range round0 {
			if _, err := ex.applyRule(t.rule, t.plan, record); err != nil {
				return err
			}
		}
	}

	// Iterate: each round consumes the previous delta.
	round, nextReplan := 0, 1
	for len(delta) > 0 {
		if err := ex.checkCtx(); err != nil {
			return err
		}
		ex.bumpIter()
		// Cost-based plans are data-dependent, and the relations of this
		// layer grow as the fixpoint runs: a plan compiled when a recursive
		// relation held one seed tuple would keep scanning it first long
		// after it outgrew every alternative.  Recompile the delta variants
		// on geometrically spaced rounds (1, 2, 4, 8, ...): relations grow
		// monotonically within a layer, so any growth-induced plan flip is
		// picked up within a factor-2 window of rounds at O(log rounds)
		// replanning cost.  Static plans (NoReorder) are data-independent,
		// so the compile-once copies stay valid.
		round++
		if !ex.noReorder && round == nextReplan {
			nextReplan *= 2
			for i := range recvars {
				if !replannable(recvars[i].rule, recvars[i].dLit) {
					continue
				}
				p, err := ex.plan(recvars[i].rule, recvars[i].dLit)
				if err != nil {
					return err
				}
				recvars[i].plan = p
			}
		}
		next := map[string]*store.Relation{}
		recordNext := func(f *term.Fact) {
			rel, ok := next[f.Pred]
			if !ok {
				rel = store.NewRelation(f.Pred, ex.db.UseIndexes)
				next[f.Pred] = rel
			}
			rel.Insert(f)
		}
		if ex.workers > 1 {
			var tasks []ruleTask
			for _, v := range recvars {
				d, ok := delta[v.rule.Body[v.dLit].Pred]
				if !ok || d.Len() == 0 {
					continue
				}
				// Split large deltas into per-worker chunks so a single
				// wide round parallelizes within one rule as well; every
				// chunk reuses the variant's compiled plan.
				for _, chunk := range chunkRelation(d, ex.workers, ex.db.UseIndexes) {
					tasks = append(tasks, ruleTask{rule: v.rule, plan: v.plan, delta: chunk, deltaSlot: v.dLit})
				}
			}
			facts, err := ex.runParallelRound(tasks, ex.workers)
			if err != nil {
				return err
			}
			ex.mergeRound(facts, recordNext)
			if err := ex.checkLimit(); err != nil {
				return err
			}
		} else {
			for _, v := range recvars {
				d, ok := delta[v.rule.Body[v.dLit].Pred]
				if !ok || d.Len() == 0 {
					continue
				}
				ex.delta = d
				ex.deltaSlot = v.dLit
				_, err := ex.applyRule(v.rule, v.plan, recordNext)
				ex.delta = nil
				ex.deltaSlot = -1
				if err != nil {
					return err
				}
			}
		}
		delta = next
		empty := true
		for _, rel := range delta {
			if rel.Len() > 0 {
				empty = false
				break
			}
		}
		if empty {
			break
		}
	}
	return nil
}

// applyRule evaluates the body of a non-grouping rule under the compiled
// plan and inserts head facts; onNew is invoked for each genuinely new
// fact.  It returns the number of new facts.
func (ex *exec) applyRule(r ast.Rule, p *bodyPlan, onNew func(*term.Fact)) (int, error) {
	b := unify.NewBindings()
	added := 0
	headRel := ex.db.Rel(r.Head.Pred)
	scratch := make([]term.Term, len(r.Head.Args))
	err := ex.join(r.Body, p, 0, b, func() error {
		if ex.stats != nil {
			ex.stats.Firings++
		}
		if err := ex.poll(); err != nil {
			return err
		}
		ok, err := applyHeadArgs(r, b, scratch)
		if err != nil || !ok {
			return err // nil when the binding is outside U (§3.2)
		}
		if _, dup := headRel.GetArgs(scratch); dup {
			return nil // re-derivation: nothing to insert or record
		}
		args := make([]term.Term, len(scratch))
		copy(args, scratch)
		f := term.NewFact(r.Head.Pred, args...)
		if ex.db.Insert(f) {
			added++
			ex.charge(f)
			if err := ex.checkLimit(); err != nil {
				return err
			}
			if ex.stats != nil {
				ex.stats.Derived++
			}
			if ex.prov != nil {
				prem := make([]*term.Fact, len(ex.trail))
				copy(prem, ex.trail)
				ex.prov.record(&Derivation{Fact: f, Rule: r.String(), Premises: prem})
			}
			if onNew != nil {
				onNew(f)
			}
		}
		return nil
	})
	return added, err
}

// join enumerates all bindings satisfying body literals p.order[step:],
// probing each positive database literal through its compiled access path.
func (ex *exec) join(body []ast.Literal, p *bodyPlan, step int, b *unify.Bindings, yield func() error) error {
	if step == len(p.order) {
		return yield()
	}
	idx := p.order[step]
	l := body[idx]
	cont := func() error { return ex.join(body, p, step+1, b, yield) }

	if layering.IsBuiltin(l.Pred) {
		return builtin.Eval(l, b, cont)
	}
	if l.Negated {
		f, err := unify.ApplyLit(l.Positive(), b)
		if err != nil {
			if errors.Is(err, unify.ErrOutsideU) {
				// A negated predicate on an object outside U is false,
				// so its negation holds (§2.2 built-in restrictions).
				return cont()
			}
			return fmt.Errorf("negated literal %q: %w", l.String(), err)
		}
		if ex.db.Contains(f) {
			return nil
		}
		return cont()
	}

	rel := ex.relFor(idx, l.Pred)
	candidates := ex.candidates(rel, &p.acc[step], b)
	for _, f := range candidates {
		mark := b.Mark()
		if unify.MatchFact(l, f, b) {
			if ex.prov != nil {
				ex.trail = append(ex.trail, f)
			}
			err := cont()
			if ex.prov != nil {
				ex.trail = ex.trail[:len(ex.trail)-1]
			}
			if err != nil {
				b.Undo(mark)
				return err
			}
			b.Undo(mark)
		}
	}
	return nil
}

// emptyRel is the shared placeholder candidates source for predicates with
// no relation yet.  relFor must not create relations: workers and
// maintenance enumerations run against shared (even published) databases,
// and db.Rel would mutate the relation map under concurrent readers.
var emptyRel = store.NewRelation("$empty", false)

func (ex *exec) relFor(litIdx int, pred string) *store.Relation {
	if ex.delta != nil && litIdx == ex.deltaSlot {
		return ex.delta
	}
	if r := ex.db.RelOrNil(pred); r != nil {
		return r
	}
	return emptyRel
}

// candidates narrows the fact scan through the literal's compiled access
// path: the probe values for every plan-time-ground column are extracted
// from the bindings and looked up in one (possibly composite) hash index.
// The binding pattern is never re-derived here — planBody fixed it when the
// layer was planned.
func (ex *exec) candidates(rel *store.Relation, a *access, b *unify.Bindings) []*term.Fact {
	if len(a.cols) > 0 {
		var arr [8]term.Term // probe buffer; stays on the stack
		var vals []term.Term
		if len(a.cols) <= len(arr) {
			vals = arr[:len(a.cols)]
		} else {
			vals = make([]term.Term, len(a.cols))
		}
		ok := true
		for i, key := range a.keys {
			v, err := key(b)
			if err != nil {
				if errors.Is(err, unify.ErrOutsideU) {
					return nil // argument outside U never matches
				}
				// The static analysis over-promised (should not happen);
				// fall back to a scan rather than probing a bogus key.
				ok = false
				break
			}
			vals[i] = v
		}
		if ok {
			facts, indexed := rel.LookupCols(a.cols, vals)
			if indexed {
				ex.idxHits++
			} else {
				ex.fullScans++
			}
			return facts
		}
	}
	ex.fullScans++
	return rel.All()
}

// applyGroupingRule evaluates a rule whose head has a grouping argument
// <Y>: the body is evaluated as for the groupless rule r⁻, solutions are
// partitioned into ≡-equivalence classes by the interpretation of the
// non-grouped head terms, and each class contributes one head fact whose
// grouped argument is the (finite, non-empty) set of Y values (§3.2).
func (ex *exec) applyGroupingRule(r ast.Rule) error {
	gIdx, inner := r.Head.GroupArg()
	if gIdx < 0 {
		return fmt.Errorf("eval: applyGroupingRule on non-grouping rule %q", r.String())
	}
	yVar, ok := inner.(term.Var)
	if !ok {
		return fmt.Errorf("eval: grouping over non-variable term <%s>; rewrite LDL1.5 heads first", inner)
	}
	p, err := ex.plan(r, -1)
	if err != nil {
		return err
	}
	type class struct {
		args  []term.Term // head args with nil at the group position
		elems []term.Term // collected Y values (deduplicated by NewSet)
		prems []*term.Fact
		seen  *store.FactSet
	}
	// ≡-classes keyed by the combined hash of the non-grouped head values;
	// the bucket slice resolves hash collisions structurally.
	classes := map[uint64][]*class{}
	var classOrder []*class

	b := unify.NewBindings()
	err = ex.join(r.Body, p, 0, b, func() error {
		if ex.stats != nil {
			ex.stats.Firings++
		}
		if err := ex.poll(); err != nil {
			return err
		}
		args := make([]term.Term, len(r.Head.Args))
		h := term.HashSeed
		for i, a := range r.Head.Args {
			if i == gIdx {
				continue
			}
			v, err := unify.Apply(a, b)
			if err != nil {
				if errors.Is(err, unify.ErrOutsideU) {
					return nil
				}
				return err
			}
			args[i] = v
			h = term.HashFold(h, v.Hash())
		}
		y, err := unify.Apply(yVar, b)
		if err != nil {
			if errors.Is(err, unify.ErrOutsideU) {
				return nil
			}
			return err
		}
		var c *class
		for _, cand := range classes[h] {
			if term.EqualTermsExcept(cand.args, args, gIdx) {
				c = cand
				break
			}
		}
		if c == nil {
			c = &class{args: args}
			if ex.prov != nil {
				c.seen = store.NewFactSet()
			}
			classes[h] = append(classes[h], c)
			classOrder = append(classOrder, c)
		}
		c.elems = append(c.elems, y)
		if ex.prov != nil {
			for _, f := range ex.trail {
				if c.seen.Add(f) {
					c.prems = append(c.prems, f)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range classOrder {
		args := make([]term.Term, len(c.args))
		copy(args, c.args)
		args[gIdx] = term.NewSet(c.elems...)
		f := term.NewFact(r.Head.Pred, args...)
		if ex.db.Insert(f) {
			ex.charge(f)
			if err := ex.checkLimit(); err != nil {
				return err
			}
			if ex.stats != nil {
				ex.stats.Derived++
			}
			if ex.prov != nil {
				ex.prov.record(&Derivation{Fact: f, Rule: r.String(), Premises: c.prems, Grouped: true})
			}
		}
	}
	return nil
}

// Solve evaluates a conjunctive query body against a database, returning
// one binding snapshot per solution (restricted to the query's variables).
func Solve(body []ast.Literal, db *store.DB) ([]map[term.Var]term.Term, error) {
	return SolveCtx(nil, body, db)
}

// SolveLimits bounds one Solve enumeration; the zero value imposes no
// bounds.  Breaches abort with the same taxonomy errors the fixpoint
// guards return, so callers (the server's per-request limits) branch on
// one vocabulary.
type SolveLimits struct {
	// MaxSolutions > 0 aborts the enumeration with *lderr.LimitError once
	// more than that many distinct solutions exist.
	MaxSolutions int
	// MemBudget > 0 aborts with *lderr.MemBudgetError once the retained
	// solution bindings exceed approximately that many bytes (the same
	// structural estimate Options.MemBudget uses for derived facts).
	MemBudget int64
}

// SolveCtx is Solve under a context: the enumeration polls ctx and aborts
// with lderr.Canceled / lderr.DeadlineExceeded when it is done.  A nil ctx
// disables the polling.
func SolveCtx(ctx context.Context, body []ast.Literal, db *store.DB) ([]map[term.Var]term.Term, error) {
	return SolveLimitsCtx(ctx, body, db, SolveLimits{})
}

// SolveLimitsCtx is SolveCtx under per-call resource bounds.
func SolveLimitsCtx(ctx context.Context, body []ast.Literal, db *store.DB, lim SolveLimits) ([]map[term.Var]term.Term, error) {
	r := ast.Rule{Head: ast.NewLit("$query"), Body: body}
	p, err := planBodyDB(r, -1, nil, db, nil)
	if err != nil {
		return nil, err
	}
	ex := &exec{db: db, deltaSlot: -1, ctx: ctx}
	// One up-front check makes a done context fail even when the
	// enumeration is too short to reach the in-join polling stride.
	if err := ex.checkCtx(); err != nil {
		return nil, err
	}
	var out []map[term.Var]term.Term
	var solBytes int64
	// Solution tuples keyed by the combined hash of their bindings; the
	// bucket resolves collisions by structural comparison.
	seen := map[uint64][]map[term.Var]term.Term{}
	vars := r.Vars()
	b := unify.NewBindings()
	err = ex.join(body, p, 0, b, func() error {
		if err := ex.poll(); err != nil {
			return err
		}
		h := term.HashSeed
		for _, v := range vars {
			if t, ok := b.Lookup(v); ok {
				h = term.HashFold(h, v.Hash())
				h = term.HashFold(h, t.Hash())
			}
		}
		for _, snap := range seen[h] {
			if sameSolution(snap, b, vars) {
				return nil
			}
		}
		snap := b.Snapshot()
		seen[h] = append(seen[h], snap)
		out = append(out, snap)
		if lim.MaxSolutions > 0 && len(out) > lim.MaxSolutions {
			return &LimitError{Limit: lim.MaxSolutions}
		}
		if lim.MemBudget > 0 {
			for _, t := range snap {
				solBytes += 48 + termBytes(t)
			}
			if solBytes > lim.MemBudget {
				return &lderr.MemBudgetError{Budget: lim.MemBudget}
			}
		}
		return nil
	})
	return out, err
}

// sameSolution reports whether the snapshot binds the query variables
// exactly as the live bindings do.
func sameSolution(snap map[term.Var]term.Term, b *unify.Bindings, vars []term.Var) bool {
	for _, v := range vars {
		t, ok := b.Lookup(v)
		s, sok := snap[v]
		if ok != sok {
			return false
		}
		if ok && !term.Equal(t, s) {
			return false
		}
	}
	return true
}
