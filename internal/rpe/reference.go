package rpe

import (
	"sort"

	"dkindex/internal/graph"
)

// This file preserves the straightforward map-based evaluators as oracles
// for the optimized hot paths in eval.go. They are algorithmically identical
// — same worklist discipline, same visit charges — and exist so audits can
// run both implementations side by side and assert bit-identical results and
// costs. They are not used by production query paths.

// ReferenceEval is the unoptimized counterpart of Eval: it probes the
// automaton once per node to seed (rather than once per label) and performs
// the same FIFO fixpoint.
func (c *Compiled) ReferenceEval(g Source, visited func(graph.NodeID)) []graph.NodeID {
	n := g.NumNodes()
	states := make([][]bool, n)
	start := c.fwdNFA.startSet()

	queue := make([]graph.NodeID, 0, 64)
	inQueue := make([]bool, n)
	push := func(id graph.NodeID) {
		if !inQueue[id] {
			inQueue[id] = true
			queue = append(queue, id)
		}
	}
	for i := 0; i < n; i++ {
		if s := c.fwdNFA.stepOn(start, g.Label(graph.NodeID(i))); s != nil {
			states[i] = s
			push(graph.NodeID(i))
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		inQueue[cur] = false
		if visited != nil {
			visited(cur)
		}
		for _, ch := range g.Children(cur) {
			delta := c.fwdNFA.stepOn(states[cur], g.Label(ch))
			if delta == nil {
				continue
			}
			if mergeStates(&states[ch], delta) {
				push(ch)
			}
		}
	}

	var out []graph.NodeID
	for i := 0; i < n; i++ {
		if states[i] != nil && c.fwdNFA.anyAccept(states[i]) {
			out = append(out, graph.NodeID(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReferenceMatchesNode is the unoptimized counterpart of MatchesNode: the
// same (node, state) BFS, stepping the []bool NFA with per-call map working
// state instead of set-table lookups and pooled per-node records.
func (c *Compiled) ReferenceMatchesNode(g Source, node graph.NodeID, visited func(graph.NodeID)) bool {
	seen := make(map[pair]bool)
	seenNode := make(map[graph.NodeID]bool)
	var queue []pair
	visit := func(n graph.NodeID) {
		if visited != nil && !seenNode[n] {
			seenNode[n] = true
			visited(n)
		}
	}
	enqueue := func(n graph.NodeID, set []bool) bool {
		for q := range set {
			if !set[q] {
				continue
			}
			if c.revNFA.accept[q] {
				return true
			}
			it := pair{n, int32(q)}
			if !seen[it] {
				seen[it] = true
				queue = append(queue, it)
			}
		}
		return false
	}

	visit(node)
	startSet := c.revNFA.stepOn(c.revNFA.startSet(), g.Label(node))
	if startSet == nil {
		return false
	}
	if enqueue(node, startSet) {
		return true
	}
	single := make([]bool, c.revNFA.NumStates())
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		visit(cur.n)
		for i := range single {
			single[i] = false
		}
		single[cur.q] = true
		for _, p := range g.Parents(cur.n) {
			next := c.revNFA.stepOn(single, g.Label(p))
			if next == nil {
				continue
			}
			if enqueue(p, next) {
				visit(p)
				return true
			}
		}
	}
	return false
}

// mergeStates ORs delta into *dst, reporting whether *dst grew.
func mergeStates(dst *[]bool, delta []bool) bool {
	if *dst == nil {
		cp := make([]bool, len(delta))
		copy(cp, delta)
		*dst = cp
		return true
	}
	grew := false
	d := *dst
	for q := range delta {
		if delta[q] && !d[q] {
			d[q] = true
			grew = true
		}
	}
	return grew
}
