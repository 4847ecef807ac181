package graph

import (
	"errors"
	"fmt"

	"dkindex/internal/cow"
)

// NodeID identifies a node within a Graph. Node identifiers are dense and
// stable: they are assigned consecutively starting from 0 and never reused.
type NodeID int32

// InvalidNode is the sentinel for "no node".
const InvalidNode NodeID = -1

// Graph is a directed, node-labeled multigraph-free graph (parallel edges are
// collapsed). It stores both children and parents adjacency so that backward
// bisimulation (which partitions nodes by their incoming structure) and
// forward query evaluation are both efficient.
//
// Adjacency rows live in copy-on-write chunks (internal/cow): Clone copies
// chunk tables, not nodes, and a mutation on either side afterwards copies
// only the chunks and rows it touches. Node labels and label posting lists
// are append-only, so clones share them with capped capacity and an append
// after Clone reallocates. Adjacency rows are kept strictly ascending, which
// makes HasEdge a binary search and every traversal order canonical.
//
// A Graph owns a LabelTable. Graphs derived from the same document share one
// table so LabelIDs are comparable across them; Clone gives the copy a
// private table with the same ids.
//
// Graph is not safe for concurrent mutation; concurrent reads (and Clones)
// are fine.
type Graph struct {
	labels    *LabelTable
	nodeLabel []LabelID
	children  cow.Rows[NodeID]
	parents   cow.Rows[NodeID]
	numEdges  int
	root      NodeID
	// byLabel[l] lists the nodes carrying label l in ascending order (node
	// ids are assigned ascending and labels never change, so appending on
	// node creation keeps the lists sorted). Query evaluation seeds from
	// these posting lists in O(|matches|) instead of scanning all nodes.
	byLabel [][]NodeID
}

// New returns an empty graph with a fresh label table.
func New() *Graph {
	return NewWithLabels(NewLabelTable())
}

// NewWithLabels returns an empty graph that shares the given label table.
func NewWithLabels(t *LabelTable) *Graph {
	return &Graph{labels: t, root: InvalidNode}
}

// Labels returns the label table shared by this graph.
func (g *Graph) Labels() *LabelTable { return g.labels }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodeLabel) }

// NumEdges returns the number of (distinct) directed edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// AddNode creates a node with the given label name and returns its id.
func (g *Graph) AddNode(label string) NodeID {
	return g.AddNodeID(g.labels.Intern(label))
}

// AddNodeID creates a node with an already-interned label.
func (g *Graph) AddNodeID(label LabelID) NodeID {
	if label < 0 || int(label) >= g.labels.Len() {
		panic(fmt.Sprintf("graph: AddNodeID with foreign label id %d", label))
	}
	id := NodeID(g.NumNodes())
	g.nodeLabel = append(g.nodeLabel, label)
	g.children.Append()
	g.parents.Append()
	for int(label) >= len(g.byLabel) {
		g.byLabel = append(g.byLabel, nil)
	}
	g.byLabel[label] = append(g.byLabel[label], id)
	return id
}

// AddRoot creates the distinguished root node (label ROOT) and records it.
// It panics if a root already exists.
func (g *Graph) AddRoot() NodeID {
	if g.root != InvalidNode {
		panic("graph: AddRoot called twice")
	}
	g.root = g.AddNode(RootLabel)
	return g.root
}

// SetRoot marks an existing node as the root.
func (g *Graph) SetRoot(n NodeID) {
	g.checkNode(n)
	g.root = n
}

// Root returns the root node, or InvalidNode if none was set.
func (g *Graph) Root() NodeID { return g.root }

// AddEdge inserts the directed edge from -> to. Duplicate edges are ignored;
// the return value reports whether the edge was newly inserted. Adjacency
// lists are kept in ascending order, so traversal order — and therefore the
// cost model — is canonical: independent of the order edges were added
// (loading a persisted graph reproduces costs exactly).
func (g *Graph) AddEdge(from, to NodeID) bool {
	g.checkNode(from)
	g.checkNode(to)
	if !g.children.Insert(int(from), to) {
		return false
	}
	g.parents.Insert(int(to), from)
	g.numEdges++
	return true
}

// RemoveEdge deletes the directed edge from -> to, reporting whether it
// existed.
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	g.checkNode(from)
	g.checkNode(to)
	if !g.children.Remove(int(from), to) {
		return false
	}
	g.parents.Remove(int(to), from)
	g.numEdges--
	return true
}

// HasEdge reports whether the directed edge from -> to exists: a binary
// search of from's ascending children row. Out-of-range ids have no edges.
func (g *Graph) HasEdge(from, to NodeID) bool {
	return uint(from) < uint(g.NumNodes()) && g.children.Contains(int(from), to)
}

// Label returns the label id of node n.
func (g *Graph) Label(n NodeID) LabelID {
	g.checkNode(n)
	return g.nodeLabel[n]
}

// LabelName returns the label string of node n.
func (g *Graph) LabelName(n NodeID) string {
	return g.labels.Name(g.Label(n))
}

// Children returns the out-neighbors of n in ascending order. The returned
// slice is owned by the graph and must not be mutated.
func (g *Graph) Children(n NodeID) []NodeID {
	g.checkNode(n)
	return g.children.At(int(n))
}

// Parents returns the in-neighbors of n in ascending order. The returned
// slice is owned by the graph and must not be mutated.
func (g *Graph) Parents(n NodeID) []NodeID {
	g.checkNode(n)
	return g.parents.At(int(n))
}

// OutDegree returns the number of children of n.
func (g *Graph) OutDegree(n NodeID) int { return len(g.Children(n)) }

// InDegree returns the number of parents of n.
func (g *Graph) InDegree(n NodeID) int { return len(g.Parents(n)) }

// NodesByLabel returns, for every label id, the list of nodes carrying it.
// The outer slice is indexed by LabelID. The slices are fresh copies of the
// maintained posting lists and may be retained by the caller.
func (g *Graph) NodesByLabel() [][]NodeID {
	out := make([][]NodeID, g.labels.Len())
	for l := range g.byLabel {
		if len(g.byLabel[l]) > 0 {
			out[l] = append([]NodeID(nil), g.byLabel[l]...)
		}
	}
	return out
}

// NodesWithLabel returns the nodes carrying label l in ascending order: the
// label posting list that seeds query evaluation. The slice is owned by the
// graph and must not be mutated. Unknown labels (including InvalidLabel)
// return nil.
func (g *Graph) NodesWithLabel(l LabelID) []NodeID {
	if l < 0 || int(l) >= len(g.byLabel) {
		return nil
	}
	return g.byLabel[l]
}

// NumLabels returns the number of labels interned in the shared table.
func (g *Graph) NumLabels() int { return g.labels.Len() }

// Clone returns a copy of the graph that shares every adjacency chunk and
// row (see internal/cow for the ownership rule) and, with capped capacity,
// the append-only node labels and posting lists with the receiver, and has
// a private copy of the label table: the copy may intern labels without the
// receiver observing them. Label ids are preserved, so queries parsed
// against the original table stay valid. The cost is O(nodes/chunk +
// labels), and Clone only reads the receiver apart from an atomic ownership
// revocation: it is safe on a graph that concurrent readers are using.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		labels:    g.labels.Clone(),
		nodeLabel: g.nodeLabel[:len(g.nodeLabel):len(g.nodeLabel)],
		children:  g.children.Clone(),
		parents:   g.parents.Clone(),
		numEdges:  g.numEdges,
		root:      g.root,
		byLabel:   make([][]NodeID, len(g.byLabel)),
	}
	for l, ns := range g.byLabel {
		c.byLabel[l] = ns[:len(ns):len(ns)]
	}
	return c
}

// ErrNoRoot is returned by operations that require a rooted graph.
var ErrNoRoot = errors.New("graph: no root node set")

// Validate performs structural sanity checks: every adjacency row is
// strictly ascending (no duplicate edges) and in range, children and parents
// mirror each other, the edge counter matches, posting lists re-derive from
// the node labels, and the root is valid. It is intended for tests and for
// validating loaded data, not for hot paths.
func (g *Graph) Validate() error {
	if g.root != InvalidNode {
		if int(g.root) >= g.NumNodes() {
			return fmt.Errorf("graph: root %d out of range", g.root)
		}
	}
	if g.children.Len() != g.NumNodes() || g.parents.Len() != g.NumNodes() {
		return fmt.Errorf("graph: %d nodes but %d children rows, %d parent rows",
			g.NumNodes(), g.children.Len(), g.parents.Len())
	}
	fwd, back := 0, 0
	for n := 0; n < g.NumNodes(); n++ {
		if err := checkRow(g.children.At(n), g.NumNodes(), "children", n); err != nil {
			return err
		}
		if err := checkRow(g.parents.At(n), g.NumNodes(), "parents", n); err != nil {
			return err
		}
		for _, c := range g.children.At(n) {
			if !g.parents.Contains(int(c), NodeID(n)) {
				return fmt.Errorf("graph: edge %d->%d missing reverse adjacency", n, c)
			}
		}
		fwd += len(g.children.At(n))
		back += len(g.parents.At(n))
	}
	// Every child entry has its parent mirror, so equal totals leave no
	// parent entry without a child.
	if fwd != g.numEdges || back != g.numEdges {
		return fmt.Errorf("graph: edge count mismatch: children %d, parents %d, counter %d",
			fwd, back, g.numEdges)
	}
	// Posting lists must exactly re-derive from the node labels.
	want := make([][]NodeID, len(g.byLabel))
	for n := 0; n < g.NumNodes(); n++ {
		l := g.nodeLabel[n]
		if int(l) >= len(want) {
			return fmt.Errorf("graph: posting lists missing label %d", l)
		}
		want[l] = append(want[l], NodeID(n))
	}
	for l := range want {
		if len(want[l]) != len(g.byLabel[l]) {
			return fmt.Errorf("graph: posting list for label %d has %d nodes, want %d",
				l, len(g.byLabel[l]), len(want[l]))
		}
		for i := range want[l] {
			if g.byLabel[l][i] != want[l][i] {
				return fmt.Errorf("graph: posting list for label %d wrong at position %d", l, i)
			}
		}
	}
	return nil
}

// checkRow verifies that an adjacency row is strictly ascending and in
// [0, numNodes).
func checkRow(row []NodeID, numNodes int, name string, n int) error {
	for i, v := range row {
		if v < 0 || int(v) >= numNodes {
			return fmt.Errorf("graph: %s row of %d lists %d outside the node range", name, n, v)
		}
		if i > 0 && row[i-1] >= v {
			return fmt.Errorf("graph: %s row of %d not strictly ascending at %d", name, n, i)
		}
	}
	return nil
}

// checkNode panics on an id outside [0, NumNodes). The panic is built by a
// separate function so that checkNode, and the accessors calling it, stay
// within the inlining budget.
func (g *Graph) checkNode(n NodeID) {
	if uint(n) >= uint(len(g.nodeLabel)) {
		panic(nodeRangeError{n, len(g.nodeLabel)})
	}
}

// nodeRangeError is the panic value of an out-of-range node id.
type nodeRangeError struct {
	n     NodeID
	count int
}

func (e nodeRangeError) Error() string {
	return fmt.Sprintf("graph: node id %d out of range [0,%d)", e.n, e.count)
}

// CompactReachable returns a new graph containing only the nodes reachable
// from the root (in their original relative order) plus the mapping from old
// node ids to new ones (InvalidNode for dropped nodes). Deleting a subtree
// is "remove its incoming edges, then compact": detached nodes stop being
// query-reachable immediately, and compaction reclaims them.
func (g *Graph) CompactReachable() (*Graph, []NodeID, error) {
	if g.root == InvalidNode {
		return nil, nil, ErrNoRoot
	}
	keep := g.ReachableFrom(g.root)
	mapping := make([]NodeID, g.NumNodes())
	for i := range mapping {
		mapping[i] = InvalidNode
	}
	out := NewWithLabels(g.labels)
	for n := 0; n < g.NumNodes(); n++ {
		if keep[NodeID(n)] {
			mapping[n] = out.AddNodeID(g.nodeLabel[n])
		}
	}
	out.SetRoot(mapping[g.root])
	for n := 0; n < g.NumNodes(); n++ {
		if mapping[n] == InvalidNode {
			continue
		}
		for _, c := range g.children.At(n) {
			if mapping[c] != InvalidNode {
				out.AddEdge(mapping[n], mapping[c])
			}
		}
	}
	return out, mapping, nil
}
