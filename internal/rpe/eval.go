package rpe

import (
	"math/bits"
	"slices"
	"sync"

	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
	"dkindex/internal/obs"
)

// Source is the graph view expression evaluation needs. Both the data graph
// and index graphs satisfy it.
type Source interface {
	NumNodes() int
	Label(n graph.NodeID) graph.LabelID
	Children(n graph.NodeID) []graph.NodeID
	Parents(n graph.NodeID) []graph.NodeID
}

// labelIndexed is the optional posting-list view of a Source: when provided
// (data graphs do), evaluation seeds from per-label node lists instead of
// probing the automaton once per node.
type labelIndexed interface {
	NodesWithLabel(l graph.LabelID) []graph.NodeID
	NumLabels() int
}

// postingIndexed is the succinct posting-list view index graphs provide:
// seeding then walks each label's compressed set without materializing it.
type postingIndexed interface {
	PostingSet(l graph.LabelID) nodeset.Set
	NumLabels() int
}

// Compiled is a ready-to-evaluate expression: the forward automaton, its
// reversal (for per-node validation walking parent edges), and the longest
// word bound. Evaluation runs on the automata's precompiled set tables; the
// NFAs themselves back only the Reference* oracles.
type Compiled struct {
	Expr Expr
	// MaxLen is the longest word length the expression matches, -1 if
	// unbounded. An index node m is sound for the whole expression when
	// MaxLen >= 0 and MaxLen-1 <= k(m).
	MaxLen int

	fwd, rev       *setTable
	fwdNFA, revNFA *NFA
}

// CompileExpr compiles e against a label table.
func CompileExpr(e Expr, t *graph.LabelTable) *Compiled {
	fwd, rev := Compile(e, t), Compile(reverseExpr(e), t)
	return &Compiled{
		Expr:   e,
		MaxLen: MaxWordLen(e),
		fwd:    newSetTable(fwd),
		rev:    newSetTable(rev),
		fwdNFA: fwd,
		revNFA: rev,
	}
}

// reverseExpr mirrors an expression so that L(rev) = reversed L(e).
func reverseExpr(e Expr) Expr {
	switch x := e.(type) {
	case Label, Wildcard:
		return x
	case Seq:
		return Seq{L: reverseExpr(x.R), R: reverseExpr(x.L)}
	case Alt:
		return Alt{L: reverseExpr(x.L), R: reverseExpr(x.R)}
	case Opt:
		return Opt{X: reverseExpr(x.X)}
	case Star:
		return Star{X: reverseExpr(x.X)}
	}
	panic("rpe: unknown expression type")
}

// Eval returns all nodes of g matched by the expression: nodes n such that
// some node path ending in n spells a word of the language. Matching uses a
// worklist fixpoint over (node, NFA-state) reachability, so cyclic graphs
// and starred expressions terminate. visited, when non-nil, receives one
// call per node expansion (the paper's cost unit).
//
// Words of length zero are ignored: an expression that accepts only the
// empty word matches nothing.
//
// Seeding exploits that the start transition depends only on a node's label:
// the successor set is computed once per label and the seed nodes come from
// the source's posting lists when it provides them. Seeds enter the worklist
// in ascending node order — exactly the order of the per-node probe loop —
// so the FIFO fixpoint performs the identical sequence of expansions and the
// visited charges are unchanged.
func (c *Compiled) Eval(g Source, visited func(graph.NodeID)) []graph.NodeID {
	return c.EvalTraced(g, visited, nil)
}

// EvalTraced is Eval with per-stage tracing: posting-list seeding records an
// "rpe_seed" span and the worklist fixpoint (plus accept collection) an
// "rpe_fixpoint" span. A nil trace makes both free — StageStart skips the
// clock read — and the visited charges are identical either way.
func (c *Compiled) EvalTraced(g Source, visited func(graph.NodeID), tr *obs.Trace) []graph.NodeID {
	t := c.fwd
	w := t.words
	n := g.NumNodes()
	// sets holds one state set per node, w words each; an all-zero set means
	// no word has reached the node. The fixpoint widens sets in place.
	sets := make([]uint64, n*w)

	st := tr.StageStart()
	queue := make([]graph.NodeID, 0, 64)
	inQueue := make([]bool, n)
	push := func(id graph.NodeID) {
		if !inQueue[id] {
			inQueue[id] = true
			queue = append(queue, id)
		}
	}
	if pi, ok := g.(postingIndexed); ok {
		// Walk each label's compressed posting set assigning seed states,
		// then push in one ascending scan over the state table — the same
		// order the sorted-seeds path produced, without materializing or
		// sorting a seed slice.
		for l := 0; l < pi.NumLabels(); l++ {
			post := pi.PostingSet(graph.LabelID(l))
			if post.IsEmpty() {
				continue
			}
			i := t.first[t.slot(graph.LabelID(l))]
			if i < 0 {
				continue
			}
			s := t.set(i)
			post.Iterate(func(id graph.NodeID) bool {
				copy(sets[int(id)*w:], s)
				return true
			})
		}
		for i := 0; i < n; i++ {
			if !isEmpty(sets[i*w : i*w+w]) {
				push(graph.NodeID(i))
			}
		}
	} else if li, ok := g.(labelIndexed); ok {
		var seeds []graph.NodeID
		for l := 0; l < li.NumLabels(); l++ {
			nodes := li.NodesWithLabel(graph.LabelID(l))
			if len(nodes) == 0 {
				continue
			}
			i := t.first[t.slot(graph.LabelID(l))]
			if i < 0 {
				continue
			}
			s := t.set(i)
			for _, id := range nodes {
				copy(sets[int(id)*w:], s)
				seeds = append(seeds, id)
			}
		}
		slices.Sort(seeds)
		for _, id := range seeds {
			push(id)
		}
	} else {
		for i := 0; i < n; i++ {
			if j := t.first[t.slot(g.Label(graph.NodeID(i)))]; j >= 0 {
				copy(sets[i*w:], t.set(j))
				push(graph.NodeID(i))
			}
		}
	}
	tr.EndStage("rpe_seed", st)
	st = tr.StageStart()
	delta := make([]uint64, w)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		inQueue[cur] = false
		if visited != nil {
			visited(cur)
		}
		// from aliases cur's set, so a self-loop that widens it mid-scan is
		// seen by the remaining children, as in the reference.
		from := sets[int(cur)*w : int(cur)*w+w]
		for _, ch := range g.Children(cur) {
			if !t.stepSet(delta, from, t.slot(g.Label(ch))) {
				continue
			}
			if orInto(sets[int(ch)*w:int(ch)*w+w], delta) {
				push(ch)
			}
		}
	}

	var out []graph.NodeID
	for i := 0; i < n; i++ {
		if t.accepts(sets[i*w : i*w+w]) {
			out = append(out, graph.NodeID(i))
		}
	}
	tr.EndStage("rpe_fixpoint", st)
	return out
}

// isEmpty reports whether set holds no state.
func isEmpty(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return false
		}
	}
	return true
}

// orInto ORs delta into dst, reporting whether dst grew.
func orInto(dst, delta []uint64) bool {
	grew := false
	for i, x := range delta {
		if x&^dst[i] != 0 {
			dst[i] |= x
			grew = true
		}
	}
	return grew
}

// pair is one (node, reversed-automaton state) item of MatchesNode's BFS.
type pair struct {
	n graph.NodeID
	q int32
}

// matchScratch pools MatchesNode's working state so validating an extent
// member does not allocate; each concurrent validation draws its own. Each
// node has a stamp, epoch<<1 plus a visited bit, and a mask of the
// reversed-automaton states already queued at it, `words` words wide. A
// stale stamp marks the node's mask as garbage, so a new search costs one
// increment, whatever width the previous search used.
type matchScratch struct {
	stamps []uint32
	masks  []uint64
	words  int
	epoch  uint32
	queue  []pair
}

var matchScratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

// reset starts a search over n nodes with state sets of the given width.
func (sc *matchScratch) reset(n, words int) {
	if n > len(sc.stamps) {
		// Zero stamps are stale for every epoch, which starts at 1.
		sc.stamps = make([]uint32, n)
	}
	if n*words > len(sc.masks) {
		sc.masks = make([]uint64, n*words)
	}
	sc.words = words
	sc.epoch++
	if sc.epoch == 1<<31 {
		clear(sc.stamps)
		sc.epoch = 1
	}
}

// mask returns node n's mask, emptied first if its stamp is stale.
func (sc *matchScratch) mask(n graph.NodeID) []uint64 {
	m := sc.masks[int(n)*sc.words : (int(n)+1)*sc.words]
	if sc.stamps[n]>>1 != sc.epoch {
		sc.stamps[n] = sc.epoch << 1
		clear(m)
	}
	return m
}

// visit charges n to visited the first time the search inspects it.
func (sc *matchScratch) visit(n graph.NodeID, visited func(graph.NodeID)) {
	if visited == nil {
		return
	}
	sc.mask(n)
	if sc.stamps[n]&1 == 0 {
		sc.stamps[n] |= 1
		visited(n)
	}
}

// enqueue queues (n, q) for every state q of set not yet queued at n, in
// ascending state order.
func (sc *matchScratch) enqueue(n graph.NodeID, set []uint64) {
	m := sc.mask(n)
	for i, w := range set {
		fresh := w &^ m[i]
		m[i] |= fresh
		for fresh != 0 {
			sc.queue = append(sc.queue, pair{n, int32(i*64 + bits.TrailingZeros64(fresh))})
			fresh &= fresh - 1
		}
	}
}

// MatchesNode reports whether the expression matches the specific node:
// whether some node path ending at it spells an accepted word. It walks
// parent edges from the node, running the reversed automaton, with
// memoization over (node, state) pairs — this is the validation primitive
// for index results. visited, when non-nil, receives each node inspected.
//
// Each parent edge costs one lookup in the reversed automaton's set table,
// and the working state comes from a pool, so a call does not allocate once
// the pool is warm. It is safe to call concurrently, so validation of one
// extent can be spread across CPUs.
func (c *Compiled) MatchesNode(g Source, node graph.NodeID, visited func(graph.NodeID)) bool {
	sc := matchScratchPool.Get().(*matchScratch)
	sc.reset(g.NumNodes(), c.rev.words)
	ok := sc.search(c.rev, g, node, visited)
	sc.queue = sc.queue[:0]
	matchScratchPool.Put(sc)
	return ok
}

// search is MatchesNode's BFS over (node, reversed-automaton state) pairs:
// polynomial in |nodes| x |states| even on cyclic graphs with starred
// expressions. Pairs are queued in ascending state order and the search
// stops at the first accepting successor, so the visit charges are those of
// ReferenceMatchesNode exactly.
func (sc *matchScratch) search(t *setTable, g Source, node graph.NodeID, visited func(graph.NodeID)) bool {
	sc.visit(node, visited)
	first := t.first[t.slot(g.Label(node))]
	if first < 0 {
		return false
	}
	if t.accepting[first] {
		return true
	}
	sc.enqueue(node, t.set(first))
	for head := 0; head < len(sc.queue); head++ {
		cur := sc.queue[head]
		sc.visit(cur.n, visited)
		if !t.moves[cur.q] {
			continue
		}
		row := int(cur.q) * t.slots
		for _, p := range g.Parents(cur.n) {
			i := t.next[row+t.slot(g.Label(p))]
			if i < 0 {
				continue
			}
			if t.accepting[i] {
				sc.visit(p, visited)
				return true
			}
			sc.enqueue(p, t.set(i))
		}
	}
	return false
}
