package index

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"dkindex/internal/graph"
)

// indexState hashes everything an index graph exposes: per-node labels,
// similarities, extents, adjacency with data-edge counts, nodeOf, and the
// data graph's rows.
func indexState(ig *IndexGraph) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, ig.NumNodes(), ig.NumEdges(), ig.FBStable())
	for n := 0; n < ig.NumNodes(); n++ {
		id := graph.NodeID(n)
		fmt.Fprint(h, ig.Label(id), ig.K(id), ig.Extent(id),
			ig.Children(id), ig.childCount.At(n), ig.Parents(id))
	}
	g := ig.Data()
	for d := 0; d < g.NumNodes(); d++ {
		id := graph.NodeID(d)
		fmt.Fprint(h, ig.IndexOf(id), g.Label(id), g.Children(id), g.Parents(id))
	}
	return h.Sum64()
}

// TestCloneBothSidesIsolated mutates an index and its clone alternately —
// splits, data-edge additions and removals, similarity changes — on a graph
// large enough that both data nodes and index nodes span several
// copy-on-write chunks. Neither side may observe the other's writes, and
// both stay valid.
func TestCloneBothSidesIsolated(t *testing.T) {
	ig := Build1Index(randomGraph(3, 1500, 4, 1200))
	sides := []*IndexGraph{ig, ig.Clone()}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		x, other := sides[i%2], sides[1-i%2]
		before := indexState(other)
		g := x.Data()
		switch rng.Intn(4) {
		case 0:
			x.SplitNode(graph.NodeID(rng.Intn(x.NumNodes())),
				func(graph.NodeID) bool { return rng.Intn(2) == 0 })
		case 1:
			x.AddDataEdge(graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes())))
		case 2:
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			if ch := g.Children(u); len(ch) > 0 {
				x.RemoveDataEdge(u, ch[rng.Intn(len(ch))])
			}
		case 3:
			x.SetK(graph.NodeID(rng.Intn(x.NumNodes())), rng.Intn(5))
		}
		if indexState(other) != before {
			t.Fatalf("op %d on one side changed the other", i)
		}
	}
	for i, s := range sides {
		if err := s.Validate(); err != nil {
			t.Fatalf("side %d: %v", i, err)
		}
		if err := s.Data().Validate(); err != nil {
			t.Fatalf("side %d data: %v", i, err)
		}
	}
}
