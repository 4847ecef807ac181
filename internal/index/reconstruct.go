package index

import (
	"fmt"
	"slices"

	"dkindex/internal/cow"
	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
)

// Reconstruct rebuilds an IndexGraph from its persisted parts: the data
// graph, the extents (which must partition the data nodes into
// label-homogeneous groups) and the per-node local similarities. Index
// adjacency is re-derived from the data edges. It validates the inputs and
// is the loading half of the on-disk codec.
func Reconstruct(data *graph.Graph, extents [][]graph.NodeID, ks []int) (*IndexGraph, error) {
	if len(extents) != len(ks) {
		return nil, fmt.Errorf("index: %d extents but %d similarities", len(extents), len(ks))
	}
	ig := &IndexGraph{
		data:       data,
		labels:     make([]graph.LabelID, len(extents)),
		extents:    cow.Make[nodeset.Set](len(extents)),
		k:          cow.Make[int](len(extents)),
		childList:  cow.MakeRows[graph.NodeID](len(extents)),
		childCount: cow.MakeRows[int32](len(extents)),
		parentList: cow.MakeRows[graph.NodeID](len(extents)),
		nodeOf:     cow.Make[graph.NodeID](data.NumNodes()),
	}
	seen := make([]bool, data.NumNodes())
	for b, ext := range extents {
		if len(ext) == 0 {
			return nil, fmt.Errorf("index: empty extent %d", b)
		}
		cp := append([]graph.NodeID(nil), ext...)
		slices.Sort(cp)
		l := data.Label(cp[0])
		ig.labels[b] = l
		ig.k.Set(b, ks[b])
		ig.appendPosting(l, graph.NodeID(b))
		for _, d := range cp {
			if d < 0 || int(d) >= data.NumNodes() {
				return nil, fmt.Errorf("index: extent %d references node %d out of range", b, d)
			}
			if seen[d] {
				return nil, fmt.Errorf("index: data node %d in two extents", d)
			}
			if data.Label(d) != l {
				return nil, fmt.Errorf("index: extent %d mixes labels", b)
			}
			seen[d] = true
			ig.nodeOf.Set(int(d), graph.NodeID(b))
		}
		// Encode after validation: FromSorted requires the strictly
		// ascending, duplicate-free input the checks above establish.
		ig.extents.Set(b, nodeset.FromSorted(cp))
	}
	for d, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("index: data node %d not covered", d)
		}
	}
	ig.deriveEdges()
	return ig, nil
}
