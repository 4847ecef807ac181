package rpe

import (
	"slices"
	"strings"
	"testing"

	"dkindex/internal/graph"
)

// FuzzParse checks that the expression parser never panics, that accepted
// expressions render back to re-parseable source and compile to at most
// MaxStates states, and that the compiled set-table kernels agree with the
// []bool reference automata on a fixed small graph: Eval with ReferenceEval in result and visit charges, and
// MatchesNode with ReferenceMatchesNode in verdict and visit charges on every
// node (and with Eval's result).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"a", "_", "a.b.c", "(a|b)*", "a//b", "//a", "a?.b*",
		"movieDB.(_)?.movie.actor.name",
		"((((a))))", "a|b|c|d", "a..b", "(", ")", "*", "a**", "a??",
		"a b", "a/b", "ROOT//title",
		// More than 64 states: state sets two words wide.
		"movieDB.(" + strings.Repeat("actor|", 36) + "movie)*.title",
	} {
		f.Add(seed)
	}
	g := graph.FigureOneMovies()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return // keep automata small
		}
		e, err := Parse(src)
		if err != nil {
			return
		}
		rendered := e.String()
		e2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendered form %q fails: %v", src, rendered, err)
		}
		if e2.String() != rendered {
			t.Fatalf("render not idempotent: %q -> %q", rendered, e2.String())
		}
		c := CompileExpr(e, g.Labels())
		if n := c.fwdNFA.NumStates(); n > MaxStates || c.revNFA.NumStates() != n {
			t.Fatalf("%q: %d and %d states, bound %d", src, n, c.revNFA.NumStates(), MaxStates)
		}
		var visits, refVisits int
		res := c.Eval(g, func(graph.NodeID) { visits++ })
		want := c.ReferenceEval(g, func(graph.NodeID) { refVisits++ })
		if !slices.Equal(res, want) || visits != refVisits {
			t.Fatalf("%q: Eval %v (%d visits), ReferenceEval %v (%d visits)", src, res, visits, want, refVisits)
		}
		matched := make(map[graph.NodeID]bool, len(res))
		for _, n := range res {
			matched[n] = true
		}
		for i := 0; i < g.NumNodes(); i++ {
			n := graph.NodeID(i)
			visits, refVisits = 0, 0
			got := c.MatchesNode(g, n, func(graph.NodeID) { visits++ })
			ref := c.ReferenceMatchesNode(g, n, func(graph.NodeID) { refVisits++ })
			if got != ref || visits != refVisits {
				t.Fatalf("%q: MatchesNode(%d)=%v (%d visits), reference %v (%d visits)", src, n, got, visits, ref, refVisits)
			}
			if got != matched[n] {
				t.Fatalf("%q: MatchesNode(%d)=%v, Eval=%v", src, n, got, matched[n])
			}
		}
	})
}
