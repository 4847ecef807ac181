package index

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"dkindex/internal/cow"
	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
	"dkindex/internal/partition"
)

// Exact is the local similarity of index nodes whose extents are fully
// bisimilar (1-index nodes): they are sound for path expressions of any
// length. It is large enough that Exact+r never overflows in neighborhood
// arithmetic.
const Exact = math.MaxInt32 / 4

// IndexGraph is a structural summary of a data graph. Index nodes are
// identified by graph.NodeID values local to the index graph (dense, starting
// at 0). Each index node carries a label, an extent (the data nodes it
// represents, kept sorted), and a local similarity k: its extent members are
// mutually k-bisimilar, making the node sound for path expressions up to
// length k (Theorem 1 / D(k) property 3).
//
// Adjacency is maintained with data-edge counts so that extent splits and
// incremental edge additions update the index graph without global rebuilds.
type IndexGraph struct {
	data *graph.Graph
	// labels is append-only (a split appends the new node's label), so
	// clones share it with capped capacity. The other per-index-node state
	// lives in copy-on-write chunks (internal/cow), as the data graph's
	// adjacency does: Clone copies chunk tables, and a split or an edge
	// update copies only the chunks and rows it touches.
	labels []graph.LabelID
	// extents holds each node's extent as an immutable succinct set
	// (internal/nodeset): clones share them, and query-side set algebra
	// operates on the compressed form directly. Mutation paths (splits,
	// repartitioning) decompress through extentScratch, recombine, and
	// swap in fresh sets.
	extents cow.Array[nodeset.Set]
	k       cow.Array[int]
	// childList[a] lists a's index children in ascending order, and
	// childCount[a][i] is the number of data edges from extent(a) into
	// extent(childList[a][i]): an index edge exists iff it is listed, and
	// its count is then > 0. parentList is the ascending mirror. The lists
	// are maintained incrementally on edge appearance/disappearance, so the
	// query hot path reads them directly. Returned slices are owned by the
	// index.
	childList  cow.Rows[graph.NodeID]
	childCount cow.Rows[int32]
	parentList cow.Rows[graph.NodeID]
	// byLabel[l] lists index nodes carrying label l in ascending order (new
	// nodes always receive the largest id, so appending keeps lists sorted).
	// Each posting list is a succinct-set builder: the sealed prefix is
	// compressed, the open chunk stays as raw low-16 values, and query
	// seeding reads PostingSet views instead of scanning all nodes.
	byLabel  []nodeset.Builder
	numEdges int
	// nodeOf maps data node -> index node. It is as long as the data graph,
	// so it lives in copy-on-write chunks: Clone copies the chunk table and
	// a split copies only the chunks of the data nodes it moves.
	nodeOf cow.Array[graph.NodeID]
	// fbStable records that extents are forward-and-backward bisimilar
	// (F&B classes): branching path queries are then sound on the index
	// alone. Data mutations clear it.
	fbStable bool
	// onSplit, when set, observes every successful SplitNode: orig kept part
	// of its extent, created received the rest. The facade wires this to the
	// lifecycle event stream; construction runs on fresh graphs without the
	// hook, so only post-build adaptation (promotion, updates) is observed.
	onSplit func(orig, created graph.NodeID)
}

// FromPartition materializes the index graph induced by a partition of src.
// kOf supplies the local similarity recorded for each block; blocks become
// index nodes with the same ids.
func FromPartition(src Source, p *partition.Partition, kOf func(partition.BlockID) int) *IndexGraph {
	data := src.Data()
	nb := p.NumBlocks()
	ig := &IndexGraph{
		data:       data,
		labels:     make([]graph.LabelID, nb),
		extents:    cow.Make[nodeset.Set](nb),
		k:          cow.Make[int](nb),
		childList:  cow.MakeRows[graph.NodeID](nb),
		childCount: cow.MakeRows[int32](nb),
		parentList: cow.MakeRows[graph.NodeID](nb),
		nodeOf:     cow.Make[graph.NodeID](data.NumNodes()),
	}
	for b := 0; b < nb; b++ {
		mem := p.Members(partition.BlockID(b))
		l := src.Label(mem[0])
		ig.labels[b] = l
		ig.k.Set(b, kOf(partition.BlockID(b)))
		ig.appendPosting(l, graph.NodeID(b))
		ext := extentScratchGet()
		for _, m := range mem {
			ext = src.AppendExtent(ext, m)
		}
		slices.Sort(ext)
		ig.extents.Set(b, nodeset.FromSorted(ext))
		for _, d := range ext {
			ig.nodeOf.Set(int(d), graph.NodeID(b))
		}
		extentScratchPut(ext)
	}
	// Derive index edges from data edges, counting multiplicities.
	ig.deriveEdges()
	return ig
}

// deriveEdges counts every data edge into the index adjacency.
func (ig *IndexGraph) deriveEdges() {
	for u := 0; u < ig.data.NumNodes(); u++ {
		a := ig.IndexOf(graph.NodeID(u))
		for _, v := range ig.data.Children(graph.NodeID(u)) {
			ig.incEdge(a, ig.IndexOf(v))
		}
	}
}

// appendPosting records that index node n carries label l. Nodes are created
// with ascending ids, so appending keeps each posting list sorted.
func (ig *IndexGraph) appendPosting(l graph.LabelID, n graph.NodeID) {
	for int(l) >= len(ig.byLabel) {
		ig.byLabel = append(ig.byLabel, nodeset.Builder{})
	}
	ig.byLabel[l].Append(n)
}

// extentScratch recycles the decompression buffers the mutation and
// persistence paths use to materialize extents.
var extentScratch = sync.Pool{New: func() any {
	b := make([]graph.NodeID, 0, 256)
	return &b
}}

func extentScratchGet() []graph.NodeID {
	return (*extentScratch.Get().(*[]graph.NodeID))[:0]
}

func extentScratchPut(b []graph.NodeID) {
	extentScratch.Put(&b)
}

// incEdge counts one more data edge from extent(a) into extent(b).
func (ig *IndexGraph) incEdge(a, b graph.NodeID) {
	j, found := slices.BinarySearch(ig.childList.At(int(a)), b)
	if found {
		ig.childCount.SetAt(int(a), j, ig.childCount.At(int(a))[j]+1)
		return
	}
	ig.childList.InsertAt(int(a), j, b)
	ig.childCount.InsertAt(int(a), j, 1)
	ig.parentList.Insert(int(b), a)
	ig.numEdges++
}

// decEdge counts one data edge from extent(a) into extent(b) less, removing
// the index edge with its last data edge.
func (ig *IndexGraph) decEdge(a, b graph.NodeID) {
	j, found := slices.BinarySearch(ig.childList.At(int(a)), b)
	if !found {
		panic(fmt.Sprintf("index: decEdge on absent edge %d->%d", a, b))
	}
	if c := ig.childCount.At(int(a))[j]; c > 1 {
		ig.childCount.SetAt(int(a), j, c-1)
		return
	}
	ig.childList.DeleteAt(int(a), j)
	ig.childCount.DeleteAt(int(a), j)
	ig.parentList.Remove(int(b), a)
	ig.numEdges--
}

// Data returns the underlying data graph.
func (ig *IndexGraph) Data() *graph.Graph { return ig.data }

// SetOnSplit installs (or clears, with nil) the split observation hook. The
// hook runs synchronously inside SplitNode after the index is consistent
// again; it must not mutate the index graph. Clone does not carry the hook.
func (ig *IndexGraph) SetOnSplit(fn func(orig, created graph.NodeID)) { ig.onSplit = fn }

// FBStable reports whether extents are known to be forward-and-backward
// bisimilar (set by BuildFB, cleared by data mutations).
func (ig *IndexGraph) FBStable() bool { return ig.fbStable }

// markFBStable is used by BuildFB.
func (ig *IndexGraph) markFBStable() { ig.fbStable = true }

// NumNodes returns the number of index nodes (the paper's index size metric).
func (ig *IndexGraph) NumNodes() int { return len(ig.labels) }

// NumEdges returns the number of distinct index edges.
func (ig *IndexGraph) NumEdges() int { return ig.numEdges }

// Label returns the label of index node n.
func (ig *IndexGraph) Label(n graph.NodeID) graph.LabelID { return ig.labels[n] }

// K returns the local similarity of index node n.
func (ig *IndexGraph) K(n graph.NodeID) int { return ig.k.At(int(n)) }

// SetK sets the local similarity of index node n.
func (ig *IndexGraph) SetK(n graph.NodeID, k int) { ig.k.Set(int(n), k) }

// Extent returns the sorted data nodes represented by index node n as a
// freshly allocated slice owned by the caller. Earlier versions returned the
// index's backing slice, which callers could alias and mutate undetected;
// the copy makes the read-only contract structural. Hot paths should prefer
// ExtentSet (no decompression) or AppendExtent (caller-managed buffer).
func (ig *IndexGraph) Extent(n graph.NodeID) []graph.NodeID {
	return ig.extents.At(int(n)).AppendTo(nil)
}

// ExtentSet returns index node n's extent in its succinct immutable form —
// the zero-copy accessor for set-algebra query primitives.
func (ig *IndexGraph) ExtentSet(n graph.NodeID) nodeset.Set { return ig.extents.At(int(n)) }

// ExtentSize returns the extent cardinality without decompressing it.
func (ig *IndexGraph) ExtentSize(n graph.NodeID) int { return ig.ExtentSet(n).Len() }

// IndexOf returns the index node whose extent contains data node d.
func (ig *IndexGraph) IndexOf(d graph.NodeID) graph.NodeID { return ig.nodeOf.At(int(d)) }

// Children returns the out-neighbors of index node n in ascending order.
// The slice is owned by the index graph and must not be mutated.
func (ig *IndexGraph) Children(n graph.NodeID) []graph.NodeID {
	return ig.childList.At(int(n))
}

// Parents returns the in-neighbors of index node n in ascending order. The
// slice is owned by the index graph and must not be mutated.
func (ig *IndexGraph) Parents(n graph.NodeID) []graph.NodeID {
	return ig.parentList.At(int(n))
}

// HasEdge reports whether the index edge a -> b exists.
func (ig *IndexGraph) HasEdge(a, b graph.NodeID) bool { return ig.childList.Contains(int(a), b) }

// NodesWithLabel returns the index nodes carrying label l in ascending order
// as a freshly allocated slice owned by the caller. Query evaluation seeds
// from PostingSet instead, which exposes the compressed list without
// materializing it. Unknown labels (including graph.InvalidLabel) return nil.
func (ig *IndexGraph) NodesWithLabel(l graph.LabelID) []graph.NodeID {
	s := ig.PostingSet(l)
	if s.IsEmpty() {
		return nil
	}
	return s.AppendTo(nil)
}

// SealPostings materializes every pending posting-list view. Builders cache
// their View lazily — a write — so a graph about to be shared with lock-free
// readers must seal first: afterwards PostingSet on a quiescent graph is a
// pure read, safe under concurrent readers and cloning writers.
func (ig *IndexGraph) SealPostings() {
	for l := range ig.byLabel {
		ig.byLabel[l].View()
	}
}

// PostingSet returns the posting list for label l as a succinct set view:
// the ascending index nodes carrying l. The view is immutable — later node
// creation never mutates it. Unknown labels return the empty set.
func (ig *IndexGraph) PostingSet(l graph.LabelID) nodeset.Set {
	if l < 0 || int(l) >= len(ig.byLabel) {
		return nodeset.Set{}
	}
	return ig.byLabel[l].View()
}

// NumLabels returns the number of labels interned in the shared table.
func (ig *IndexGraph) NumLabels() int { return ig.data.Labels().Len() }

// AppendExtent implements Source, allowing an IndexGraph to serve as the
// construction source for another index (subgraph addition, demotion). The
// extent is decompressed directly into dst in ascending order.
func (ig *IndexGraph) AppendExtent(dst []graph.NodeID, n graph.NodeID) []graph.NodeID {
	return ig.ExtentSet(n).AppendTo(dst)
}

var _ Source = (*IndexGraph)(nil)

// Clone returns a copy that can be mutated — data graph included — without
// the receiver observing it. Everything is shared copy-on-write: the data
// graph (graph.Graph.Clone), the chunked per-index-node state
// (internal/cow), the append-only labels and posting builders (capped), and
// the immutable extent sets; the copy costs chunk tables and O(labels). The
// split hook is not copied: instrumentation re-attaches per mutation.
func (ig *IndexGraph) Clone() *IndexGraph {
	c := &IndexGraph{
		data:       ig.data.Clone(),
		labels:     ig.labels[:len(ig.labels):len(ig.labels)],
		extents:    ig.extents.Clone(),
		k:          ig.k.Clone(),
		childList:  ig.childList.Clone(),
		childCount: ig.childCount.Clone(),
		parentList: ig.parentList.Clone(),
		byLabel:    make([]nodeset.Builder, len(ig.byLabel)),
		numEdges:   ig.numEdges,
		nodeOf:     ig.nodeOf.Clone(),
		fbStable:   ig.fbStable,
	}
	for l := range ig.byLabel {
		c.byLabel[l] = ig.byLabel[l].Clone()
	}
	return c
}

// Validate checks all structural invariants: extents partition the data
// nodes, labels are homogeneous, edge counts equal data-edge multiplicities,
// adjacency rows are strictly ascending and mirror each other, and nodeOf is
// consistent. Intended for tests.
func (ig *IndexGraph) Validate() error {
	n := ig.NumNodes()
	if ig.extents.Len() != n || ig.k.Len() != n || ig.childList.Len() != n ||
		ig.childCount.Len() != n || ig.parentList.Len() != n {
		return fmt.Errorf("index: per-node arrays disagree on the node count %d", n)
	}
	seen := make([]bool, ig.data.NumNodes())
	for b := 0; b < n; b++ {
		ext := ig.extents.At(b)
		if ext.IsEmpty() {
			return fmt.Errorf("index: empty extent at node %d", b)
		}
		var extErr error
		ext.Iterate(func(d graph.NodeID) bool {
			if seen[d] {
				extErr = fmt.Errorf("index: data node %d in two extents", d)
				return false
			}
			seen[d] = true
			if ig.IndexOf(d) != graph.NodeID(b) {
				extErr = fmt.Errorf("index: nodeOf[%d]=%d, listed in %d", d, ig.IndexOf(d), b)
				return false
			}
			if ig.data.Label(d) != ig.labels[b] {
				extErr = fmt.Errorf("index: node %d extent mixes labels", b)
				return false
			}
			return true
		})
		if extErr != nil {
			return extErr
		}
	}
	for d, ok := range seen {
		if !ok {
			return fmt.Errorf("index: data node %d not covered by any extent", d)
		}
	}
	// Recount edges from scratch.
	want := make(map[[2]graph.NodeID]int)
	for u := 0; u < ig.data.NumNodes(); u++ {
		for _, v := range ig.data.Children(graph.NodeID(u)) {
			want[[2]graph.NodeID{ig.IndexOf(graph.NodeID(u)), ig.IndexOf(v)}]++
		}
	}
	got, back := 0, 0
	for a := 0; a < n; a++ {
		list, counts := ig.childList.At(a), ig.childCount.At(a)
		if len(list) != len(counts) {
			return fmt.Errorf("index: node %d lists %d children but %d counts", a, len(list), len(counts))
		}
		if err := checkAscending(list, "childList", a); err != nil {
			return err
		}
		if err := checkAscending(ig.parentList.At(a), "parentList", a); err != nil {
			return err
		}
		for i, b := range list {
			key := [2]graph.NodeID{graph.NodeID(a), b}
			if counts[i] <= 0 {
				return fmt.Errorf("index: non-positive edge count %d->%d", a, b)
			}
			if want[key] != int(counts[i]) {
				return fmt.Errorf("index: edge %d->%d count %d, want %d", a, b, counts[i], want[key])
			}
			if !ig.parentList.Contains(int(b), graph.NodeID(a)) {
				return fmt.Errorf("index: edge %d->%d parent mirror mismatch", a, b)
			}
		}
		got += len(list)
		back += len(ig.parentList.At(a))
	}
	if got != len(want) {
		return fmt.Errorf("index: %d edges present, want %d", got, len(want))
	}
	if got != ig.numEdges {
		return fmt.Errorf("index: numEdges=%d, actual %d", ig.numEdges, got)
	}
	// Every child entry has its parent mirror, so equal totals leave no
	// parent entry without a child.
	if back != got {
		return fmt.Errorf("index: %d parent entries for %d edges", back, got)
	}
	// Posting lists must exactly re-derive from the node labels.
	wantPost := make([][]graph.NodeID, len(ig.byLabel))
	for b := 0; b < n; b++ {
		l := ig.labels[b]
		if int(l) >= len(wantPost) {
			return fmt.Errorf("index: posting lists missing label %d", l)
		}
		wantPost[l] = append(wantPost[l], graph.NodeID(b))
	}
	for l := range wantPost {
		if got := ig.NodesWithLabel(graph.LabelID(l)); !slices.Equal(wantPost[l], got) {
			return fmt.Errorf("index: posting list for label %d is %v, want %v",
				l, got, wantPost[l])
		}
	}
	return nil
}

// MemStats reports the physical memory held by the succinct extents and
// posting lists, alongside the bytes an uncompressed [][]graph.NodeID
// representation would occupy (one slice header plus 4 bytes per member for
// each list) — the compression-ratio denominators exported to observability.
type MemStats struct {
	Extents  nodeset.Stats
	Postings nodeset.Stats
	// ExtentRawBytes / PostingRawBytes are the raw-slice equivalents.
	ExtentRawBytes  int
	PostingRawBytes int
}

// ExtentBytes returns the resident bytes of all extent sets.
func (m MemStats) ExtentBytes() int { return m.Extents.Bytes() }

// PostingBytes returns the resident bytes of all posting lists.
func (m MemStats) PostingBytes() int { return m.Postings.Bytes() }

const sliceHeaderBytes = 24

// MemStats computes the current footprint in one pass over the containers.
func (ig *IndexGraph) MemStats() MemStats {
	var m MemStats
	for b := 0; b < ig.extents.Len(); b++ {
		ext := ig.extents.At(b)
		ext.AddStats(&m.Extents)
		m.ExtentRawBytes += sliceHeaderBytes + 4*ext.Len()
	}
	for l := range ig.byLabel {
		if pb := &ig.byLabel[l]; pb.Len() > 0 {
			pb.AddStats(&m.Postings)
			m.PostingRawBytes += sliceHeaderBytes + 4*pb.Len()
		}
	}
	return m
}

// checkAscending verifies that an adjacency row is strictly ascending.
func checkAscending(list []graph.NodeID, name string, at int) error {
	for i := 1; i < len(list); i++ {
		if list[i-1] >= list[i] {
			return fmt.Errorf("index: %s[%d] not strictly ascending at %d", name, at, i)
		}
	}
	return nil
}
