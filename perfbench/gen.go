package main

// Seeded input generation.  Every input the benchmark sends to the engine
// — the served program, the read query set, the per-client op streams and
// the batch suite — is a pure function of --seed, so two runs with one
// seed drive the engine with byte-identical inputs.

import (
	"fmt"
	"math/rand"
	"strings"
)

// serveNodes sizes the served tree: 4096 nodes give ~44k model facts
// (ancestor pairs dominate, about 8 per node).  With 16384 nodes one
// write cost 130-300 ms on a 2-core host, and even 8192 nodes capped
// serve-mixed near 55 ops/s: too few reads per run for a steady p99.
const serveNodes = 4096

// readQueryCap is the number of distinct serve-read queries.  It equals
// the view's answer-cache capacity, so after warm-up every read is a hit.
const readQueryCap = 128

// serveRules is the served program: recursion (ancestor), grouping
// (kids) and stratified negation (leaf).
const serveRules = `ancestor(X, Y) <- parent(X, Y).
ancestor(X, Z) <- parent(X, Y), ancestor(Y, Z).
kids(P, <C>) <- parent(P, C).
haskid(X) <- parent(X, _).
leaf(X) <- node(X), not haskid(X).
`

// tree is a random level tree: level sizes grow by treeFanout from a
// single root (the last level takes the remainder), node ids run level by
// level, and each node below the root hangs under a node drawn uniformly
// from the level above.  Fixing the level sizes fixes every depth-driven
// cost — the ancestor count, same-generation pairs, answer sizes of
// ancestors-of — so seeds change the wiring, not the amount of work.
type tree struct {
	parent []int // parent[0] = -1; parent[i] < i
	depth  []int
	size   []int // subtree sizes, the node itself included
	nkids  []int
	levels [][]int // node ids by depth
}

const treeFanout = 2.5

func randomTree(n int, rng *rand.Rand) *tree {
	t := &tree{parent: make([]int, n), depth: make([]int, n), size: make([]int, n), nkids: make([]int, n)}
	t.parent[0] = -1
	t.levels = [][]int{{0}}
	for next, width := 1, 1.0; next < n; {
		width *= treeFanout
		w := int(width + 0.5)
		if next+w > n || next+w+int(width*treeFanout) > n {
			w = n - next
		}
		above := t.levels[len(t.levels)-1]
		level := make([]int, w)
		for k := range level {
			i := next + k
			p := above[rng.Intn(len(above))]
			t.parent[i], t.depth[i] = p, t.depth[p]+1
			t.nkids[p]++
			level[k] = i
		}
		t.levels = append(t.levels, level)
		next += w
	}
	for i := n - 1; i >= 0; i-- {
		t.size[i]++
		if i > 0 {
			t.size[t.parent[i]] += t.size[i]
		}
	}
	return t
}

// ancestorPairs is |ancestor| for the tree: every node has depth-many
// proper ancestors.
func (t *tree) ancestorPairs() int {
	s := 0
	for _, d := range t.depth {
		s += d
	}
	return s
}

// writeFacts renders the node/1 and parent/2 facts of the tree.
func (t *tree) writeFacts(b *strings.Builder) {
	for i := range t.parent {
		fmt.Fprintf(b, "node(n%d).\n", i)
	}
	for i := 1; i < len(t.parent); i++ {
		fmt.Fprintf(b, "parent(n%d, n%d).\n", t.parent[i], i)
	}
}

// serveInput is everything the serve workloads derive from the seed.
type serveInput struct {
	seed    int64
	tree    *tree
	program string   // rules plus facts: admission parses, vets, loads and materializes it
	queries []string // serve-read's distinct queries
	movable []int    // nodes a write may re-parent (see writeStream)
	anchors []int    // nodes never re-parented, the only targets of a move
}

func newServeInput(seed int64, nodes int) *serveInput {
	rng := rand.New(rand.NewSource(seed))
	t := randomTree(nodes, rng)
	var b strings.Builder
	b.WriteString(serveRules)
	t.writeFacts(&b)
	in := &serveInput{seed: seed, tree: t, program: b.String()}

	// Anchors are the nodes of depth <= 2: all their ancestors are anchors
	// too, so no move (which only re-parents non-anchors under anchors)
	// can ever put an anchor under a moved subtree — the tree stays a
	// tree.  Movable nodes have small subtrees, so one move re-derives a
	// bounded number of facts.
	for i := range t.parent {
		switch {
		case t.depth[i] <= 2:
			in.anchors = append(in.anchors, i)
		case t.size[i] <= 32:
			in.movable = append(in.movable, i)
		}
	}

	// serve-read's queries: a quarter each of ancestors-of, descendants-of,
	// kids sets and leaf checks, all non-empty, from one row to a few
	// thousand.  Descendants-of asks for every internal depth-3 node (their
	// subtrees partition all deeper nodes) and random deeper internal
	// nodes; one kids query and one leaf query range over the whole
	// relation.  The largest answers thus have seed-independent sizes,
	// which keeps the read tail comparable across seeds.
	var internal, leaves []int
	for i := range t.parent {
		if t.nkids[i] == 0 {
			leaves = append(leaves, i)
		} else if t.depth[i] > 3 {
			internal = append(internal, i)
		}
	}
	quarter := readQueryCap / 4
	seen := map[string]bool{}
	add := func(q string) bool {
		if seen[q] {
			return false
		}
		seen[q] = true
		in.queries = append(in.queries, q)
		return true
	}
	fill := func(form string, pool []int, n int) {
		for n < quarter {
			if add(fmt.Sprintf(form, pool[rng.Intn(len(pool))])) {
				n++
			}
		}
	}
	fill("ancestor(X, n%d)", leaves, 0)
	n := 0
	for _, i := range t.levels[3] {
		if t.nkids[i] > 0 && add(fmt.Sprintf("ancestor(n%d, Y)", i)) {
			n++
		}
	}
	fill("ancestor(n%d, Y)", internal, n)
	add("kids(P, S)")
	fill("kids(n%d, S)", internal, 1)
	add("leaf(X)")
	fill("leaf(n%d)", leaves, 1)
	return in
}

// opKind classifies one client operation.
type opKind int

const (
	opRead opKind = iota
	opAssertLeaf
	opRetractLeaf
	opMove
)

var opKindNames = [...]string{"read", "assert_leaf", "retract_leaf", "move"}

func (k opKind) String() string { return opKindNames[k] }

// op is one generated client operation: a query, or one write transaction
// given as fact-list source text.
type op struct {
	kind    opKind
	query   string
	assert  string
	retract string
}

// writeStream generates the writer's update transactions.  It asserts
// leaves named w<k>, retracts only leaves it asserted itself, and moves
// only movable nodes under anchors, so it always knows the current EDB:
// the final state is the original tree with its moves and live leaves.
// A new leaf always hangs under an original node, so no leaf ever gains
// a child.
type writeStream struct {
	in         *serveInput
	rng        *rand.Rand
	next       int   // next leaf serial
	leaves     []int // serials of live leaves
	leafParent map[int]int
	moved      map[int]int // current parent of each moved node
}

func newWriteStream(in *serveInput) *writeStream {
	return &writeStream{
		in:         in,
		rng:        rand.New(rand.NewSource(in.seed*7919 + 1)),
		leafParent: map[int]int{},
		moved:      map[int]int{},
	}
}

// randomRead draws a query over a node chosen uniformly from the tree
// below depth 2, so reads spread over far more keys than the answer cache
// holds.  The ten shallowest nodes are left out: their descendants-of
// answers run to thousands of rows, and the one or two a run happens to
// draw would set serve-mixed's read tail by chance (each also delays the
// reads queued behind it).
func randomRead(in *serveInput, rng *rand.Rand) string {
	n := len(in.anchors) + rng.Intn(len(in.tree.parent)-len(in.anchors))
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("ancestor(X, n%d)", n)
	case 1:
		return fmt.Sprintf("ancestor(n%d, Y)", n)
	case 2:
		return fmt.Sprintf("kids(n%d, S)", n)
	default:
		return fmt.Sprintf("leaf(n%d)", n)
	}
}

// Next draws a write: 40% leaf asserts, 30% retractions of a leaf this
// stream asserted earlier (an assert when it has none, since retracting
// an absent fact costs nothing), 30% subtree moves.
func (s *writeStream) Next() op {
	t := s.in.tree
	r := s.rng.Intn(10)
	switch {
	case r >= 4 && r < 7 && len(s.leaves) > 0:
		i := s.rng.Intn(len(s.leaves))
		k := s.leaves[i]
		s.leaves[i] = s.leaves[len(s.leaves)-1]
		s.leaves = s.leaves[:len(s.leaves)-1]
		p := s.leafParent[k]
		delete(s.leafParent, k)
		return op{kind: opRetractLeaf, retract: fmt.Sprintf("node(w%d). parent(n%d, w%d).", k, p, k)}
	case r >= 7:
		c := s.in.movable[s.rng.Intn(len(s.in.movable))]
		from, ok := s.moved[c]
		if !ok {
			from = t.parent[c]
		}
		to := from
		for to == from {
			to = s.in.anchors[s.rng.Intn(len(s.in.anchors))]
		}
		s.moved[c] = to
		return op{kind: opMove,
			retract: fmt.Sprintf("parent(n%d, n%d).", from, c),
			assert:  fmt.Sprintf("parent(n%d, n%d).", to, c)}
	default:
		k := s.next
		s.next++
		p := s.rng.Intn(len(t.parent))
		s.leaves = append(s.leaves, k)
		s.leafParent[k] = p
		return op{kind: opAssertLeaf, assert: fmt.Sprintf("node(w%d). parent(n%d, w%d).", k, p, k)}
	}
}

// finalEDB renders the EDB after every write the stream generated has
// been applied.
func finalEDB(in *serveInput, w *writeStream) string {
	parent := append([]int(nil), in.tree.parent...)
	for c, p := range w.moved {
		parent[c] = p
	}
	var b strings.Builder
	for i := range parent {
		fmt.Fprintf(&b, "node(n%d).\n", i)
	}
	for i := 1; i < len(parent); i++ {
		fmt.Fprintf(&b, "parent(n%d, n%d).\n", parent[i], i)
	}
	for _, k := range w.leaves {
		fmt.Fprintf(&b, "node(w%d).\nparent(n%d, w%d).\n", k, w.leafParent[k], k)
	}
	return b.String()
}
