package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// inputs renders everything a seed generates — the served program, the
// read set, the reader's and writer's op streams and the batch suite —
// as one string.
func inputs(seed int64, nodes int) string {
	var b strings.Builder
	in := newServeInput(seed, nodes)
	b.WriteString(in.program)
	b.WriteString(strings.Join(in.queries, "\n"))
	reader, writer := mixedClients(in)
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "%+v\n%+v\n", reader(), writer.Next())
	}
	pick := readPickers(in, seed)[1]
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%+v\n", pick())
	}
	b.WriteString(finalEDB(in, writer))
	for _, bp := range newBatchSuite(seed) {
		fmt.Fprintf(&b, "%s\n%s\n%v\n%v\n%v\n", bp.name, bp.src, bp.expect, bp.facts, bp.magic)
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		if a, b := inputs(seed, 1024), inputs(seed, 1024); a != b {
			t.Errorf("seed %d generated different inputs on two calls", seed)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := newServeInput(1, 1024), newServeInput(2, 1024)
	if a.program == b.program {
		t.Error("seeds 1 and 2 generated the same served program")
	}
	if strings.Join(a.queries, ",") == strings.Join(b.queries, ",") {
		t.Error("seeds 1 and 2 generated the same read set")
	}
	if inputs(1, 1024) == inputs(2, 1024) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
	sa, sb := newBatchSuite(1), newBatchSuite(2)
	for i := range sa {
		if sa[i].name != "partcost" && sa[i].src == sb[i].src {
			t.Errorf("seeds 1 and 2 generated the same %s program", sa[i].name)
		}
	}
}

func TestServeInputShape(t *testing.T) {
	in := newServeInput(3, serveNodes)
	if len(in.queries) != readQueryCap {
		t.Fatalf("%d distinct read queries, want %d", len(in.queries), readQueryCap)
	}
	seen := map[string]bool{}
	for _, q := range in.queries {
		if seen[q] {
			t.Fatalf("duplicate read query %s", q)
		}
		seen[q] = true
	}
	if len(in.movable) == 0 || len(in.anchors) < 2 {
		t.Fatalf("%d movable nodes, %d anchors", len(in.movable), len(in.anchors))
	}
}

// TestWritesKeepATree replays a long write stream on the parent array
// and checks that moves never create a cycle and retractions only remove
// live leaves.
func TestWritesKeepATree(t *testing.T) {
	in := newServeInput(5, 2048)
	parent := append([]int(nil), in.tree.parent...)
	live := map[string]bool{}
	w := newWriteStream(in)
	for i := 0; i < 2000; i++ {
		o := w.Next()
		switch o.kind {
		case opAssertLeaf:
			if live[o.assert] {
				t.Fatalf("leaf asserted twice: %s", o.assert)
			}
			live[o.assert] = true
		case opRetractLeaf:
			if !live[o.retract] {
				t.Fatalf("retraction of a leaf not live: %s", o.retract)
			}
			delete(live, o.retract)
		case opMove:
			var from, to, c int
			fmt.Sscanf(o.retract, "parent(n%d, n%d).", &from, &c)
			fmt.Sscanf(o.assert, "parent(n%d, n%d).", &to, &c)
			if parent[c] != from {
				t.Fatalf("move retracts parent(n%d, n%d), current parent is n%d", from, c, parent[c])
			}
			parent[c] = to
			for x, steps := to, 0; x != -1; x, steps = parent[x], steps+1 {
				if x == c || steps > len(parent) {
					t.Fatalf("moving n%d under n%d made a cycle", c, to)
				}
			}
		}
	}
	if len(live) != len(w.leaves) {
		t.Fatalf("%d live leaves by replay, stream tracks %d", len(live), len(w.leaves))
	}
}

func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ds []int
	for i := 1; i <= 100; i++ {
		ds = append(ds, i)
	}
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	var xs []time.Duration
	for _, d := range ds {
		xs = append(xs, time.Duration(d))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestOverWindows(t *testing.T) {
	// Ten samples in three groups: [0,3) [3,6) [6,10).  The group sums
	// are 3, 12 and 30, so the median is 12 whatever the last group holds.
	sum := func(lo, hi int) float64 {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
		return float64(s)
	}
	if got := overWindows(10, 3, sum); got != 12 {
		t.Errorf("overWindows(10, 3, sum) = %v, want 12", got)
	}
	// Fewer samples than groups: one group per sample, and the median of
	// an even count is the mean of the middle two.
	if got := overWindows(4, 6, sum); got != 1.5 {
		t.Errorf("overWindows(4, 6, sum) = %v, want 1.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	parent := tr.newID()
	tr.record(tr.newID(), parent, "child", at(10), at(40))
	tr.record(tr.newID(), parent, "child", at(30), at(60))  // overlaps the first
	tr.record(tr.newID(), parent, "child", at(90), at(120)) // runs past the parent
	tr.record(parent, 0, "op", at(0), at(100))
	if got := tr.selfTimes("op"); len(got) != 1 || got[0] != 40*time.Millisecond {
		t.Fatalf("self time %v, want [40ms]", got)
	}
	if got := tr.selfTimes("child"); len(got) != 3 || got[0] != 30*time.Millisecond {
		t.Fatalf("child self times %v", got)
	}
}
