// Package eval evaluates path queries on data graphs and on structural
// summaries, implementing the paper's in-memory cost model (Section 6.1):
// the cost of a query is the number of nodes visited in the index or data
// graph during evaluation. Data nodes inside the extent of a matched index
// node are free — unless the match requires validation, in which case every
// data node inspected while validating is charged.
package eval

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/nodeset"
	"dkindex/internal/obs"
	"dkindex/internal/workpool"
)

// Query is a simple path query: a sequence of labels, outermost first. A
// data node matches if some node path ending in it spells the query (the
// paper's partial-match semantics — queries may start anywhere, which is the
// common self-or-descendant '//' usage its workload models).
type Query []graph.LabelID

// ParseQuery builds a Query from a dotted label path such as
// "director.movie.title". Labels the data has never used resolve to
// graph.InvalidLabel, which no node carries — the query simply matches
// nothing. (Parsing never interns, so hostile query streams cannot grow the
// label table.)
func ParseQuery(t *graph.LabelTable, s string) (Query, error) {
	if s == "" {
		return nil, fmt.Errorf("eval: empty query")
	}
	parts := strings.Split(s, ".")
	q := make(Query, len(parts))
	for i, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("eval: empty label at position %d in %q", i, s)
		}
		q[i] = t.Lookup(p)
	}
	return q, nil
}

// Length returns the path expression length in the paper's convention: a
// query of m+1 labels has length m (its edge count). An index node is sound
// for q iff its local similarity is >= q.Length().
func (q Query) Length() int { return len(q) - 1 }

// Format renders the query with a label table. Labels unknown to the data
// (graph.InvalidLabel after parsing) render as "__unknown__", which itself
// resolves to no label, so formatting stays re-parseable.
func (q Query) Format(t *graph.LabelTable) string {
	parts := make([]string, len(q))
	for i, l := range q {
		parts[i] = labelName(t, l)
	}
	return strings.Join(parts, ".")
}

// AppendKey appends a compact fixed-width binary encoding of q (4 bytes per
// label, little-endian) to dst and returns the extended slice. Equal queries
// produce equal keys and the encoding orders keys by label-id sequence; the
// load recorder uses it as a map key that needs no label table to build.
func (q Query) AppendKey(dst []byte) []byte {
	for _, l := range q {
		dst = append(dst, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return dst
}

// labelName renders a label id defensively (parsing can produce
// graph.InvalidLabel for labels the data never uses).
func labelName(t *graph.LabelTable, l graph.LabelID) string {
	if l == graph.InvalidLabel {
		return "__unknown__"
	}
	return t.Name(l)
}

// Cost tallies the work of one evaluation under the paper's cost model.
type Cost struct {
	// IndexNodesVisited counts nodes expanded during graph traversal (index
	// nodes for index evaluation, data nodes for direct evaluation).
	IndexNodesVisited int
	// DataNodesValidated counts data nodes inspected by the validation
	// process.
	DataNodesValidated int
	// Validations counts matched index nodes that required validation.
	Validations int
}

// Total is the paper's scalar cost: all nodes visited.
func (c Cost) Total() int { return c.IndexNodesVisited + c.DataNodesValidated }

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.IndexNodesVisited += other.IndexNodesVisited
	c.DataNodesValidated += other.DataNodesValidated
	c.Validations += other.Validations
}

// Data evaluates q directly on the data graph — the ground truth (and the
// cost of queries without any index). Results are sorted data node ids.
func Data(g *graph.Graph, q Query) ([]graph.NodeID, Cost) {
	var c Cost
	res := g.EvalLabelPath(q, func(graph.NodeID) { c.IndexNodesVisited++ })
	return res, c
}

// Index evaluates q on a structural summary. The query is first run over
// the index graph; extents of matched index nodes that are sound for the
// query (local similarity >= query length) contribute wholesale, while
// unsound matches are validated node by node against the data graph
// (Section 4.1: the validation process of the A(k)-index, applied per index
// node under the D(k)-index's per-node similarities).
//
// Results are sorted data node ids and always equal Data(g, q): safety
// guarantees no misses, validation removes false positives.
func Index(ig *index.IndexGraph, q Query) ([]graph.NodeID, Cost) {
	return IndexTraced(ig, q, nil)
}

// IndexTraced is Index with per-stage tracing: the index-graph match and the
// validation loop are recorded as "match" and "validate" spans, and the cost
// counters are copied onto the trace. A nil trace makes every tracing call a
// no-op (StageStart then skips the clock read), so the uninstrumented path is
// unchanged — and the counters themselves are computed identically either
// way, keeping traced and untraced costs bit-for-bit equal.
func IndexTraced(ig *index.IndexGraph, q Query, tr *obs.Trace) ([]graph.NodeID, Cost) {
	var c Cost
	st := tr.StageStart()
	matched := evalOnIndex(ig, q, &c)
	tr.EndStage("match", st)
	need := q.Length()
	data := ig.Data()
	st = tr.StageStart()
	// Sound matches stay compressed until the final merge; validated hits
	// accumulate uncompressed. Extents are disjoint (they partition the data
	// nodes), so the container-level merge emits the same sorted result the
	// old append-everything-then-sort produced.
	var sound []nodeset.Set
	var extra []graph.NodeID
	for _, m := range matched {
		if ig.K(m) >= need {
			sound = append(sound, ig.ExtentSet(m))
			continue
		}
		c.Validations++
		ext := evalExtentGet()
		ext = ig.AppendExtent(ext, m)
		hits, charged := validateMembers(ext, func(d graph.NodeID, charge func(graph.NodeID)) bool {
			return data.LabelPathMatchesNode(q, d, charge)
		})
		evalExtentPut(ext)
		c.DataNodesValidated += charged
		extra = append(extra, hits...)
	}
	slices.Sort(extra)
	res := nodeset.MergeAppend(nil, sound, extra)
	tr.EndStage("validate", st)
	tr.RecordCost(c.IndexNodesVisited, c.DataNodesValidated, c.Validations, len(res))
	return res, c
}

// IndexNoValidation evaluates q on the summary trusting every match: the
// union of matched extents is returned without consulting the data graph.
// For a sound index (every matched node with similarity >= query length)
// this equals the true result; otherwise it may contain false positives.
// Exposed for soundness experiments and tests.
func IndexNoValidation(ig *index.IndexGraph, q Query) ([]graph.NodeID, Cost) {
	var c Cost
	matched := evalOnIndex(ig, q, &c)
	sets := make([]nodeset.Set, len(matched))
	for i, m := range matched {
		sets[i] = ig.ExtentSet(m)
	}
	return nodeset.MergeAppend(nil, sets, nil), c
}

// evalExtent pools decompression buffers for the validation paths: unsound
// matches materialize their extent once, validate it, and return the buffer.
var evalExtent = sync.Pool{New: func() any {
	b := make([]graph.NodeID, 0, 512)
	return &b
}}

func evalExtentGet() []graph.NodeID  { return (*evalExtent.Get().(*[]graph.NodeID))[:0] }
func evalExtentPut(b []graph.NodeID) { evalExtent.Put(&b) }

// validateParallelThreshold is the extent size above which validation fans
// out across CPUs (mirroring partition's parallel refinement threshold, tuned
// lower because validating one member costs a backward search, not a hash).
// Per-member validation is independent — the memo scratch is per call — and
// the charge for one member is deterministic, so summing per-chunk counters
// in chunk order reproduces the serial Cost exactly.
var validateParallelThreshold = 1 << 11

// validateMembers runs check over every extent member, returning the members
// that passed (in extent order) and the total number of data nodes charged.
// Large extents are validated by a bounded worker pool; results and charges
// are merged in chunk order so the outcome is identical to the serial loop.
func validateMembers(ext []graph.NodeID, check func(d graph.NodeID, charge func(graph.NodeID)) bool) ([]graph.NodeID, int) {
	if len(ext) < validateParallelThreshold || runtime.GOMAXPROCS(0) <= 1 {
		var hits []graph.NodeID
		charged := 0
		charge := func(graph.NodeID) { charged++ }
		for _, d := range ext {
			if check(d, charge) {
				hits = append(hits, d)
			}
		}
		return hits, charged
	}
	// Fan out over the shared workpool budget (the same pool construction
	// rounds draw from, so concurrent query + build traffic cannot
	// oversubscribe the machine). Chunk boundaries and the chunk-order merge
	// are unchanged from the dedicated pool this replaced: per-member charges
	// are deterministic, so the summed Cost stays bit-identical to serial.
	type chunkResult struct {
		hits    []graph.NodeID
		charged int
	}
	workers := workpool.Workers(len(ext), 0, 8)
	results := make([]chunkResult, workers)
	workpool.Chunks(len(ext), workers, func(w, lo, hi int) {
		r := &results[w]
		charge := func(graph.NodeID) { r.charged++ }
		for _, d := range ext[lo:hi] {
			if check(d, charge) {
				r.hits = append(r.hits, d)
			}
		}
	})
	var hits []graph.NodeID
	charged := 0
	for w := range results {
		hits = append(hits, results[w].hits...)
		charged += results[w].charged
	}
	return hits, charged
}

// idxScratch pools the dense frontier buffers of evalOnIndex.
type idxScratch struct {
	seen graph.VisitSet
	a, b []graph.NodeID
	cand []graph.NodeID
}

var idxScratchPool = sync.Pool{New: func() any { return new(idxScratch) }}

// evalOnIndex runs the label-path traversal over the index graph, charging
// one visit per (node, position) expansion, and returns the matched index
// nodes in ascending order. Each step is pure set algebra over the
// compressed posting lists: the frontier's distinct children (deduplicated
// by an epoch-stamped visit set) are intersected with the next label's
// posting set, either by probing the visit set while walking the compressed
// list (when the posting list is the smaller side) or by a container-skipping
// sorted intersection. Frontiers come out ascending, so no final sort is
// needed. The charges are exactly those of the per-child label-check
// evaluator: a step charges one visit per distinct frontier child carrying
// the wanted label — precisely |children(frontier) ∩ posting(label)| — and
// charge totals are independent of frontier order.
func evalOnIndex(ig *index.IndexGraph, q Query, c *Cost) []graph.NodeID {
	if len(q) == 0 {
		return nil
	}
	sc := idxScratchPool.Get().(*idxScratch)
	seed := ig.PostingSet(q[0])
	cur := seed.AppendTo(sc.a[:0])
	c.IndexNodesVisited += seed.Len()
	next, cand := sc.b[:0], sc.cand[:0]
	for pos := 1; pos < len(q) && len(cur) > 0; pos++ {
		sc.seen.Reset(ig.NumNodes())
		cand = cand[:0]
		for _, n := range cur {
			for _, ch := range ig.Children(n) {
				if sc.seen.Add(ch) {
					cand = append(cand, ch)
				}
			}
		}
		next = next[:0]
		post := ig.PostingSet(q[pos])
		if post.Len() <= 2*len(cand) {
			post.Iterate(func(id graph.NodeID) bool {
				if sc.seen.Contains(id) {
					next = append(next, id)
				}
				return true
			})
		} else {
			slices.Sort(cand)
			next = nodeset.IntersectSortedAppend(post, cand, next)
		}
		c.IndexNodesVisited += len(next)
		cur, next = next, cur
	}
	var out []graph.NodeID
	if len(cur) > 0 {
		out = append([]graph.NodeID(nil), cur...)
	}
	sc.a, sc.b, sc.cand = cur, next, cand
	idxScratchPool.Put(sc)
	return out
}

// SameResult reports whether two sorted result slices are identical; a test
// and experiment helper.
func SameResult(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MatchedIndexNodes runs the index-graph traversal for q and returns the
// matched index nodes (ascending) with the traversal cost, leaving the
// sound-or-validate decision to the caller. It backs explanation tooling.
func MatchedIndexNodes(ig *index.IndexGraph, q Query) ([]graph.NodeID, Cost) {
	var c Cost
	return evalOnIndex(ig, q, &c), c
}
