package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// graphOp is one logged mutation: a node append (label name) or an edge add
// or removal.
type graphOp struct {
	kind     byte // 'n' node, '+' add edge, '-' remove edge
	label    string
	from, to NodeID
}

// loggedGraph is a graph plus the ops that produced it.
type loggedGraph struct {
	g   *Graph
	log []graphOp
}

func (lg *loggedGraph) apply(op graphOp) {
	switch op.kind {
	case 'n':
		lg.g.AddNode(op.label)
	case '+':
		lg.g.AddEdge(op.from, op.to)
	case '-':
		lg.g.RemoveEdge(op.from, op.to)
	}
	lg.log = append(lg.log, op)
}

// randomOp draws a mutation for g. Edge endpoints favor a small hot set so
// that rows are edited repeatedly in place after their chunk is copied, and
// labels occasionally are new so the label tables diverge across clones.
func randomOp(rng *rand.Rand, g *Graph, fresh *int) graphOp {
	node := func() NodeID {
		if rng.Intn(3) == 0 {
			return NodeID(rng.Intn(min(8, g.NumNodes())))
		}
		return NodeID(rng.Intn(g.NumNodes()))
	}
	switch r := rng.Intn(10); {
	case r == 0:
		*fresh++
		return graphOp{kind: 'n', label: fmt.Sprintf("new%d", *fresh)}
	case r == 1:
		return graphOp{kind: 'n', label: fmt.Sprintf("l%d", rng.Intn(5))}
	case r < 6:
		return graphOp{kind: '+', from: node(), to: node()}
	default:
		from := node()
		if cs := g.Children(from); len(cs) > 0 && rng.Intn(4) != 0 {
			return graphOp{kind: '-', from: from, to: cs[rng.Intn(len(cs))]}
		}
		return graphOp{kind: '-', from: from, to: node()}
	}
}

// sameGraph reports the first difference between two graphs' observable
// state: label tables, node labels, adjacency rows, posting lists, counters.
func sameGraph(a, b *Graph) error {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Root() != b.Root() {
		return fmt.Errorf("shape (%d nodes, %d edges, root %d) vs (%d, %d, %d)",
			a.NumNodes(), a.NumEdges(), a.Root(), b.NumNodes(), b.NumEdges(), b.Root())
	}
	if a.Labels().Len() != b.Labels().Len() {
		return fmt.Errorf("label tables hold %d vs %d labels", a.Labels().Len(), b.Labels().Len())
	}
	for l := 0; l < a.Labels().Len(); l++ {
		if a.Labels().Name(LabelID(l)) != b.Labels().Name(LabelID(l)) {
			return fmt.Errorf("label %d is %q vs %q", l, a.Labels().Name(LabelID(l)), b.Labels().Name(LabelID(l)))
		}
		if !slices.Equal(a.NodesWithLabel(LabelID(l)), b.NodesWithLabel(LabelID(l))) {
			return fmt.Errorf("posting list of label %d differs", l)
		}
	}
	for n := NodeID(0); int(n) < a.NumNodes(); n++ {
		if a.Label(n) != b.Label(n) {
			return fmt.Errorf("node %d label %d vs %d", n, a.Label(n), b.Label(n))
		}
		if !slices.Equal(a.Children(n), b.Children(n)) {
			return fmt.Errorf("children of %d: %v vs %v", n, a.Children(n), b.Children(n))
		}
		if !slices.Equal(a.Parents(n), b.Parents(n)) {
			return fmt.Errorf("parents of %d: %v vs %v", n, a.Parents(n), b.Parents(n))
		}
	}
	return nil
}

// TestCloneCopyOnWriteRandomized grows a family of graphs by cloning random
// members and then mutating parent and child alternately. Each graph must
// equal a from-scratch rebuild of its own op log and pass Validate: a write
// on either side of a Clone never leaks into the other, however the shared
// chunks and rows were edited before.
func TestCloneCopyOnWriteRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fresh := 0
			base := &loggedGraph{g: New()}
			// Enough nodes to span several chunks.
			for i := 0; i < 1200; i++ {
				base.apply(graphOp{kind: 'n', label: fmt.Sprintf("l%d", rng.Intn(5))})
			}
			for i := 0; i < 3000; i++ {
				base.apply(randomOp(rng, base.g, &fresh))
			}
			family := []*loggedGraph{base}
			for round := 0; round < 30; round++ {
				parent := family[rng.Intn(len(family))]
				child := &loggedGraph{g: parent.g.Clone(), log: slices.Clone(parent.log)}
				family = append(family, child)
				for i := 0; i < 60; i++ {
					side := parent
					if i%2 == 1 {
						side = child
					}
					side.apply(randomOp(rng, side.g, &fresh))
				}
			}
			for i, lg := range family {
				if err := lg.g.Validate(); err != nil {
					t.Fatalf("graph %d: %v", i, err)
				}
				rebuilt := &loggedGraph{g: New()}
				for _, op := range lg.log {
					rebuilt.apply(op)
				}
				if err := sameGraph(lg.g, rebuilt.g); err != nil {
					t.Fatalf("graph %d differs from its op-log rebuild: %v", i, err)
				}
			}
		})
	}
}

// TestCloneLeavesSourceBitIdentical pins the two directions explicitly: a
// snapshot of the source taken before Clone must survive every kind of
// mutation on the clone, and vice versa.
func TestCloneLeavesSourceBitIdentical(t *testing.T) {
	g := FigureOneMovies()
	want := g.Clone()
	c := g.Clone()
	n := c.AddNode("fresh")
	c.AddEdge(c.Root(), n)
	c.RemoveEdge(c.Root(), c.Children(c.Root())[0])
	if err := sameGraph(g, want); err != nil {
		t.Fatalf("source changed by clone mutation: %v", err)
	}
	if g.Labels().Lookup("fresh") != InvalidLabel {
		t.Fatal("label interned by the clone leaked into the source table")
	}
	cWant := c.Clone()
	g.AddEdge(g.Root(), NodeID(g.NumNodes()-1))
	g.RemoveEdge(g.Root(), g.Children(g.Root())[0])
	g.AddNode("other")
	if err := sameGraph(c, cWant); err != nil {
		t.Fatalf("clone changed by source mutation: %v", err)
	}
}

func TestValidateRejectsBrokenRows(t *testing.T) {
	g := FigureOneMovies()
	to := NodeID(g.NumNodes() - 1)
	if g.HasEdge(0, to) {
		t.Fatal("fixture already has the edge")
	}
	g.children.Insert(0, to) // no mirrored parent entry
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a child edge without its parent mirror")
	}
	g = FigureOneMovies()
	g.AddEdge(0, to)
	row := g.Children(0)
	row[0], row[1] = row[1], row[0]
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a row out of order")
	}
}
