package dkindex

import (
	"fmt"
	"time"

	"dkindex/internal/core"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
	"dkindex/internal/qcache"
	"dkindex/internal/rpe"
)

// snapshot is one immutable published state of the index. Queries resolve it
// once from the Index handle and work against it without further
// coordination; mutations never touch a published snapshot — they clone what
// they change and publish a successor under the writer mutex.
type snapshot struct {
	dk  *core.DK
	gen uint64
}

// Kind selects a query language for Run.
type Kind string

// The query kinds Run understands. They double as the metric label values
// under which query metrics are reported.
const (
	// KindPath is a simple dotted label path ("director.movie.title") with
	// partial-match semantics.
	KindPath Kind = "path"
	// KindRPE is a regular path expression
	// (l, _, R.R, R|R, (R), R?, R*, and the a//b descendant shorthand).
	KindRPE Kind = "rpe"
	// KindTwig is a branching path query such as "movie[actor.name].title".
	KindTwig Kind = "twig"
)

// ErrQueryTooLarge is wrapped by Run's error for a query that is too large
// to evaluate: a regular path expression over rpe.MaxStates automaton
// states. The query is rejected while it is parsed, before it is compiled.
var ErrQueryTooLarge = rpe.ErrTooLarge

// Request describes one query for Run.
type Request struct {
	// Kind selects the query language; empty means KindPath.
	Kind Kind
	// Text is the query in the chosen language.
	Text string
	// Limit bounds how many result nodes are returned: 0 returns all of
	// them, a positive value at most that many, and a negative value none at
	// all (a count-only query). Result.Total always reports the full count.
	Limit int
	// Origin identifies the caller for observability — the HTTP server passes
	// the request's X-Request-ID. When this execution is trace-sampled, the
	// origin is stamped onto the trace, linking /traces entries back to the
	// request that produced them. Empty is fine.
	Origin string
}

// Result is the answer to one Request.
type Result struct {
	// Nodes holds the matching data nodes (sorted), truncated per
	// Request.Limit. The slice is owned by the caller.
	Nodes []NodeID
	// Total is the full result count, regardless of Limit.
	Total int
	// Stats reports the query's cost under the paper's model. For a cache
	// hit it is the cost of the evaluation that populated the cache —
	// costs are deterministic, so the replayed numbers are exact.
	Stats QueryStats
	// CacheHit reports whether the result came from the result cache.
	CacheHit bool
	// Generation identifies the snapshot that answered the query; it
	// increases by one with every index mutation.
	Generation uint64
	// Traced reports whether this execution was sampled by the tracer (cache
	// hits never are — nothing was evaluated).
	Traced bool

	g *graph.Graph
	// names, when set, overrides g for label resolution: composite results
	// (CompositeResult) span several indexes, so no single graph can format
	// their node ids.
	names func(NodeID) string
}

// LabelName returns the label of a result node, resolved against the same
// snapshot that produced the result (label ids from one snapshot must not be
// formatted against another's table).
func (r *Result) LabelName(n NodeID) string {
	if r.names != nil {
		return r.names(n)
	}
	if r.g == nil {
		return ""
	}
	return r.g.LabelName(n)
}

// BatchResult pairs one Request's Result with its error in RunBatch output.
type BatchResult struct {
	Result Result
	Err    error
}

// DefaultResultCacheSize is the result cache capacity an Index starts with.
const DefaultResultCacheSize = 4096

// cachedResult is the cache payload: the full result set plus the cost of
// computing it. Both are immutable once stored.
type cachedResult struct {
	nodes []NodeID
	cost  eval.Cost
}

// Run evaluates one query against the current snapshot. It is safe for any
// number of concurrent callers, also concurrently with mutations: the
// snapshot is resolved once, so the result is consistent even while an
// update publishes a successor mid-query.
func (x *Index) Run(req Request) (Result, error) {
	return x.runOn(x.handle.Load(), req)
}

// RunBatch evaluates several queries against one snapshot: all results carry
// the same Generation even if mutations land between items. Per-item errors
// are reported in place; the batch always returns len(reqs) entries.
func (x *Index) RunBatch(reqs []Request) []BatchResult {
	s := x.handle.Load()
	out := make([]BatchResult, len(reqs))
	for i, req := range reqs {
		out[i].Result, out[i].Err = x.runOn(s, req)
	}
	return out
}

// Generation returns the current snapshot's generation (0 for a fresh
// index; each mutation increments it).
func (x *Index) Generation() uint64 { return x.handle.Load().gen }

// Generations returns the snapshot generation as a one-element vector. It
// exists so a single index and the sharded engine (internal/shard), whose
// vector has one element per shard, satisfy the same serving interface.
func (x *Index) Generations() []uint64 { return []uint64{x.Generation()} }

// CompositeResult assembles a Result for engines that layer several indexes —
// internal/shard's scatter-gather router merges per-shard results into one.
// nodes must already be merged, sorted and truncated to the request's limit;
// total is the untruncated count; names resolves labels for merged node ids
// (no single snapshot graph can). The caller owns nodes.
func CompositeResult(nodes []NodeID, total int, stats QueryStats, cacheHit, traced bool, gen uint64, names func(NodeID) string) Result {
	return Result{
		Nodes: nodes, Total: total, Stats: stats,
		CacheHit: cacheHit, Traced: traced, Generation: gen, names: names,
	}
}

// SetResultCache replaces the result cache with one holding up to capacity
// entries per snapshot generation; capacity <= 0 disables caching. The new
// cache starts cold.
func (x *Index) SetResultCache(capacity int) {
	if capacity <= 0 {
		x.cache.Store(nil)
		return
	}
	x.cache.Store(qcache.New(capacity))
}

// ResultCacheLen returns how many results are cached for the current
// generation.
func (x *Index) ResultCacheLen() int { return x.cache.Load().Len() }

// runOn evaluates one request against a resolved snapshot. This is the whole
// read hot path: no locks are taken anywhere below — the snapshot is
// immutable, the recorder and the auto-promote heat are atomic-counter
// structures, and the cache is generation-keyed so it needs no invalidation
// protocol here.
func (x *Index) runOn(s *snapshot, req Request) (Result, error) {
	kind := req.Kind
	if kind == "" {
		kind = KindPath
	}
	ig := s.dk.IG
	labels := ig.Data().Labels()

	// Parse up front so errors never consume cache or recorder capacity,
	// and the normalized evaluation closure is ready for a cache miss.
	var evalFn func(tr *obs.Trace) ([]NodeID, eval.Cost)
	lastLabel := graph.InvalidLabel
	qlen := 0
	switch kind {
	case KindPath:
		q, err := eval.ParseQuery(labels, req.Text)
		if err != nil {
			x.observer.ObserveQueryError(string(kind))
			return Result{}, err
		}
		if r := x.recorder.Load(); r != nil {
			r.Record(q)
		}
		lastLabel, qlen = q[len(q)-1], q.Length()
		evalFn = func(tr *obs.Trace) ([]NodeID, eval.Cost) {
			return eval.IndexTraced(ig, q, tr)
		}
	case KindRPE:
		e, err := rpe.Parse(req.Text)
		if err != nil {
			x.observer.ObserveQueryError(string(kind))
			return Result{}, err
		}
		// Compiling builds both automata and their set tables, work a
		// cache hit never needs.
		evalFn = func(tr *obs.Trace) ([]NodeID, eval.Cost) {
			return eval.IndexRPETraced(ig, rpe.CompileExpr(e, labels), tr)
		}
	case KindTwig:
		tw, err := eval.ParseTwig(labels, req.Text)
		if err != nil {
			x.observer.ObserveQueryError(string(kind))
			return Result{}, err
		}
		evalFn = func(tr *obs.Trace) ([]NodeID, eval.Cost) {
			return eval.IndexTwigTraced(ig, tw, tr)
		}
	default:
		// Not observed: kinds are caller-chosen strings and would mint
		// unbounded metric label values.
		return Result{}, fmt.Errorf("dkindex: unknown query kind %q", kind)
	}

	key := string(kind) + "\x00" + req.Text
	cache := x.cache.Load()
	if v, ok := cache.Get(s.gen, key); ok {
		cr := v.(*cachedResult)
		x.observer.ObserveCacheHit(string(kind))
		x.observer.ObserveQuery(string(kind), 0, costSample(cr.cost), len(cr.nodes))
		// Cache hits still feed auto-promotion: repeats of a validating
		// query are exactly the pressure SetAutoPromote reacts to, and the
		// cached cost carries the validation count of every repeat.
		x.noteValidation(lastLabel, qlen, cr.cost.Validations)
		return s.result(cr.nodes, cr.cost, true, req.Limit), nil
	}
	x.observer.ObserveCacheMiss(string(kind))

	tr := x.observer.SampleTrace(string(kind), req.Text)
	tr.SetOrigin(req.Origin)
	var begin time.Time
	if x.observer != nil {
		begin = time.Now()
	}
	nodes, cost := evalFn(tr)
	x.noteValidation(lastLabel, qlen, cost.Validations)
	if x.observer != nil {
		x.observer.ObserveQuery(string(kind), time.Since(begin), costSample(cost), len(nodes))
		x.observer.FinishTrace(tr)
		x.observer.SetCacheEntries(cache.Len())
	}
	// Put after noteValidation: if an auto-promotion just bumped the
	// generation, this store is stale and the cache drops it on its own.
	cache.Put(s.gen, key, &cachedResult{nodes: nodes, cost: cost})
	res := s.result(nodes, cost, false, req.Limit)
	res.Traced = tr != nil
	return res, nil
}

// result assembles a Result from a (possibly cached, hence shared and
// immutable) node slice, applying the Limit semantics.
func (s *snapshot) result(nodes []NodeID, cost eval.Cost, hit bool, limit int) Result {
	res := Result{
		Total:      len(nodes),
		Stats:      fromCost(cost),
		CacheHit:   hit,
		Generation: s.gen,
		g:          s.dk.IG.Data(),
	}
	switch {
	case limit < 0:
		// Count-only: no nodes.
	case limit == 0 || limit >= len(nodes):
		res.Nodes = append([]NodeID(nil), nodes...)
	default:
		res.Nodes = append([]NodeID(nil), nodes[:limit]...)
	}
	return res
}

// Query evaluates a simple dotted label path ("director.movie.title") with
// partial-match semantics: a node matches if some node path ending in it
// spells the query. Results are exact (validation removes index false
// positives) and sorted.
//
// Deprecated: use Run with KindPath, which also reports cache and snapshot
// metadata. Query remains as a thin wrapper.
func (x *Index) Query(path string) ([]NodeID, QueryStats, error) {
	res, err := x.Run(Request{Kind: KindPath, Text: path})
	return res.Nodes, res.Stats, err
}

// QueryRPE evaluates a regular path expression
// (l, _, R.R, R|R, (R), R?, R*, and the a//b descendant shorthand).
// Results are exact and sorted.
//
// Deprecated: use Run with KindRPE.
func (x *Index) QueryRPE(expr string) ([]NodeID, QueryStats, error) {
	res, err := x.Run(Request{Kind: KindRPE, Text: expr})
	return res.Nodes, res.Stats, err
}

// QueryTwig evaluates a branching path query such as
// "movie[actor.name].title" — titles of movies having an actor child with a
// name. Results are exact: on an F&B index they come straight off the
// summary; on this adaptive index they are validated against the data
// (backward bisimilarity cannot certify child existence).
//
// Deprecated: use Run with KindTwig.
func (x *Index) QueryTwig(q string) ([]NodeID, QueryStats, error) {
	res, err := x.Run(Request{Kind: KindTwig, Text: q})
	return res.Nodes, res.Stats, err
}
