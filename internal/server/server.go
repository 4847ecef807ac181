// Package server exposes a D(k)-index over HTTP with a small JSON API,
// served in two versions: the versioned tree under /v1 and the original
// routes, kept as aliases.
//
//	GET  /v1/query?kind=path&q=a.b.c    unified query endpoint (kind: path|rpe|twig)
//	POST /v1/query {"queries":[...]}    batch: every item answers from one snapshot
//	GET  /v1/stats                      index statistics (incl. snapshot generation)
//	POST /v1/edges    {"from":1,"to":2} incremental edge addition
//	POST /v1/edges/remove {...}         incremental edge removal
//	POST /v1/documents  (XML body)      incremental document insertion
//	POST /v1/promote {"label":"x","k":2} promoting process
//	POST /v1/demote  {"reqs":{"x":1}}   demoting process
//	POST /v1/optimize {"budget":1000}   re-tune from the observed load
//	POST /v1/mutate   {"op":...} or {"mutations":[...]}  unified write endpoint
//	                                    (?ack=sync|async; acks carry seq,
//	                                    watermark and generation)
//	GET  /v1/watermark                  write-pipeline progress
//	GET  /v1/explain?path=a.b.c         per-index-node query explanation
//	GET  /v1/healthz                    liveness
//	GET  /v1/metrics                    Prometheus text exposition
//	GET  /v1/events?n=100&since=0       index lifecycle event stream
//	GET  /v1/traces?n=50                recent sampled query traces
//	GET  /v1/slow?n=10                  slow-query log (top-N by latency)
//	GET  /query?path=a.b.c              legacy query endpoint (also rpe=, twig=)
//
// Every response echoes (or mints) an X-Request-ID header; sampled traces and
// slow-log entries carry the same ID, so one slow request links from client
// log to trace to cost counters. Errors are structured:
// {"error": "...", "code": "bad_query|bad_request|conflict|too_large", "requestId": "..."}.
//
// The server carries no locks of its own: the index serves queries from
// atomic snapshots and serializes mutations internally, so handlers call it
// directly and queries are never blocked — not by each other and not by
// updates. Every path query is recorded (lock-free) so /optimize can re-tune
// the index to the live load. The server adopts the index's observer
// (attaching a fresh one when the index is unobserved), so /metrics and
// /events work out of the box; EnablePprof optionally mounts net/http/pprof
// under /debug/pprof/.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dkindex"
	"dkindex/internal/obs"
)

// HeaderShardGenerations carries the backend's snapshot generation vector on
// every response, comma-separated ("g0,g1,..."). A single index reports one
// element; the sharded engine reports one per shard, and an element moves
// only when its shard commits — so the vector is a result-cache key with
// per-shard granularity (a write to one shard leaves entries keyed by the
// other shards' elements valid).
const HeaderShardGenerations = "X-Shard-Generations"

// formatGenerations renders the generation vector for the header.
func formatGenerations(gens []uint64) string {
	var b []byte
	for i, g := range gens {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, g, 10)
	}
	return string(b)
}

// Error codes carried in structured error responses.
const (
	codeBadQuery   = "bad_query"
	codeBadRequest = "bad_request"
	codeConflict   = "conflict"
	codeTooLarge   = "too_large"
	codeOverloaded = "overloaded"
	codeNotReady   = "not_ready"
	codeInternal   = "internal"
	codeReadOnly   = "read_only"
	codeGone       = "gone"
)

// Backend is what the handlers serve: the query, mutation and introspection
// surface shared by the single *dkindex.Index and the sharded engine
// (internal/shard.Engine). Both are lock-free for readers and serialize
// writers internally, so the server's no-locks contract holds either way.
//
// Generations is the snapshot version vector: one element for a single index,
// one per shard for the sharded engine (each element moves only when its
// shard commits). Every response exposes it as X-Shard-Generations, giving
// clients a cache key with per-shard granularity.
type Backend interface {
	Run(dkindex.Request) (dkindex.Result, error)
	RunBatch([]dkindex.Request) []dkindex.BatchResult
	Stats() dkindex.Stats
	ObservedQueries() int
	Explain(path string) (*dkindex.Explanation, error)

	ApplyBatch([]dkindex.Mutation) ([]dkindex.Ack, error)
	ApplyBatchAsync([]dkindex.Mutation) ([]dkindex.Ack, error)
	AddEdge(from, to dkindex.NodeID) error
	RemoveEdge(from, to dkindex.NodeID) error
	AddDocument(r io.Reader, opts *dkindex.LoadOptions) ([]dkindex.NodeID, error)
	PromoteLabel(label string, k int) error
	Demote(reqsByName map[string]int) error
	Optimize(sizeBudget int) (map[string]int, error)

	Watermark() uint64
	LastSeq() uint64
	Generation() uint64
	Generations() []uint64
	Batching() bool

	WatchLoad()
	Observer() *obs.Observer
	Observe(*obs.Observer)
}

// Server wraps a backend with the HTTP handlers. It holds no locks: the
// backend's snapshot architecture makes every call safe concurrently.
type Server struct {
	idx Backend
	mux *http.ServeMux
	obs *obs.Observer
	// red holds the pre-registered per-route RED metric bundles, keyed by
	// route label ("other" catches everything off the fixed table).
	red map[string]*routeRED

	// inflight, when SetMaxInFlight arms it, bounds concurrently served
	// requests; requests beyond the bound are shed with 503 + Retry-After
	// instead of queueing without limit. Probe routes bypass it.
	inflight chan struct{}
	// readyCheck, when SetReadyCheck installs it, backs /v1/readyz: nil
	// error means ready. Liveness (/healthz) stays unconditional.
	readyCheck func() error

	// replSrc, when SetReplSource attaches one, backs the /v1/repl/* feed a
	// primary ships its WAL from. replicaPrimary/replicaStatus, when
	// SetReplicaMode installs them, make this server a read-only replica:
	// mutations are rejected toward the primary and every response carries
	// the replica's staleness watermark.
	replSrc        *dkindex.Store
	replicaPrimary string
	replicaStatus  func() (applied, head uint64)
}

// New wraps idx; the server starts watching the query load immediately. The
// index's observer, when attached, backs /metrics and /events; an unobserved
// index gets a fresh observer so the endpoints always serve.
func New(idx *dkindex.Index) *Server { return NewBackend(idx) }

// NewBackend wraps any Backend — a single index or the sharded engine — with
// the same HTTP surface; responses are shard-transparent (global node ids,
// merged stats) apart from the X-Shard-Generations header.
func NewBackend(idx Backend) *Server {
	idx.WatchLoad()
	o := idx.Observer()
	if o == nil {
		o = obs.NewObserver()
		idx.Observe(o)
	}
	s := &Server{idx: idx, mux: http.NewServeMux(), obs: o, red: newREDTable(o.Registry)}
	// Every route serves under /v1 and, as a legacy alias, at the root.
	for _, p := range []string{"", "/v1"} {
		s.mux.HandleFunc("GET "+p+"/healthz", s.handleHealth)
		s.mux.HandleFunc("GET "+p+"/readyz", s.handleReady)
		s.mux.HandleFunc("GET "+p+"/stats", s.handleStats)
		s.mux.HandleFunc("GET "+p+"/explain", s.handleExplain)
		s.mux.HandleFunc("POST "+p+"/edges", s.handleAddEdge)
		s.mux.HandleFunc("POST "+p+"/edges/remove", s.handleRemoveEdge)
		s.mux.HandleFunc("POST "+p+"/documents", s.handleAddDocument)
		s.mux.HandleFunc("POST "+p+"/promote", s.handlePromote)
		s.mux.HandleFunc("POST "+p+"/demote", s.handleDemote)
		s.mux.HandleFunc("POST "+p+"/optimize", s.handleOptimize)
		s.mux.HandleFunc("POST "+p+"/mutate", s.handleMutate)
		s.mux.HandleFunc("GET "+p+"/watermark", s.handleWatermark)
		s.mux.HandleFunc("GET "+p+"/repl/checkpoint", s.handleReplCheckpoint)
		s.mux.HandleFunc("GET "+p+"/repl/wal", s.handleReplWAL)
		s.mux.HandleFunc("GET "+p+"/metrics", s.handleMetrics)
		s.mux.HandleFunc("GET "+p+"/events", s.handleEvents)
		s.mux.HandleFunc("GET "+p+"/traces", s.handleTraces)
		s.mux.HandleFunc("GET "+p+"/slow", s.handleSlow)
	}
	// The query endpoint differs between versions: /v1 takes kind= + q=
	// (one parameter scheme for all languages) and accepts batches by POST;
	// the legacy route keeps the path=/rpe=/twig= parameter per language.
	s.mux.HandleFunc("GET /query", s.handleLegacyQuery)
	s.mux.HandleFunc("GET /v1/query", s.handleV1Query)
	s.mux.HandleFunc("POST /v1/query", s.handleQueryBatch)
	return s
}

// SetMaxInFlight bounds how many requests are served concurrently; excess
// requests are shed immediately with 503 and a Retry-After hint rather than
// piling up. n <= 0 removes the bound. Probe routes (healthz, readyz) are
// never shed. Call before serving traffic.
func (s *Server) SetMaxInFlight(n int) {
	if n <= 0 {
		s.inflight = nil
		return
	}
	s.inflight = make(chan struct{}, n)
}

// SetReadyCheck installs the readiness probe behind /v1/readyz: a nil error
// means ready to serve. Call before serving traffic; without a check the
// endpoint always reports ready.
func (s *Server) SetReadyCheck(f func() error) { s.readyCheck = f }

// probeRoute reports whether the request is a liveness/readiness probe,
// which must answer even when the server is saturated.
func probeRoute(path string) bool {
	switch path {
	case "/healthz", "/v1/healthz", "/readyz", "/v1/readyz":
		return true
	}
	return false
}

// ServeHTTP implements http.Handler: the RED middleware. It stamps the
// request ID onto the response, counts the request and its in-flight
// occupancy, sheds it if the in-flight bound is hit, converts handler panics
// into 500s instead of letting one poisoned request tear down the connection,
// and records the latency and error class per route on the way out.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Echo (or mint) the request ID before dispatch: handlers and writeError
	// read it back off the response header, so every body — including shed
	// and panic responses — is attributable in client logs.
	w.Header().Set(headerRequestID, requestID(r))
	s.replicaLagHeader(w)
	w.Header().Set(HeaderShardGenerations, formatGenerations(s.idx.Generations()))
	m := s.red[routeLabel(r.URL.Path)]
	m.requests.Inc()
	m.inflight.Add(1)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			s.obs.ObserveHTTPPanic()
			// The handler may have written already; this is best-effort.
			writeError(sw, http.StatusInternalServerError, codeInternal,
				fmt.Errorf("internal error"))
		}
		m.inflight.Add(-1)
		m.duration.Observe(time.Since(start).Seconds())
		switch {
		case sw.status >= 500:
			m.err5xx.Inc()
		case sw.status >= 400:
			m.err4xx.Inc()
		}
	}()
	if s.inflight != nil && !probeRoute(r.URL.Path) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.obs.ObserveHTTPShed()
			sw.Header().Set("Retry-After", "1")
			writeError(sw, http.StatusServiceUnavailable, codeOverloaded,
				fmt.Errorf("server at capacity, retry shortly"))
			return
		}
	}
	s.mux.ServeHTTP(sw, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.readyCheck != nil {
		if err := s.readyCheck(); err != nil {
			writeError(w, http.StatusServiceUnavailable, codeNotReady, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.idx.Stats()
	gens := s.idx.Generations()
	writeJSON(w, http.StatusOK, map[string]any{
		"dataNodes":       st.DataNodes,
		"dataEdges":       st.DataEdges,
		"indexNodes":      st.IndexNodes,
		"indexEdges":      st.IndexEdges,
		"maxK":            st.MaxK,
		"generation":      st.Generation,
		"cachedResults":   st.CachedResults,
		"observedQueries": s.idx.ObservedQueries(),
		"shards":          len(gens),
		"generations":     gens,
	})
}

// queryResponse is the JSON shape of query results.
type queryResponse struct {
	Query      string             `json:"query"`
	Kind       string             `json:"kind"`
	Count      int                `json:"count"`
	Results    []queryResult      `json:"results"`
	Cost       dkindex.QueryStats `json:"cost"`
	CacheHit   bool               `json:"cacheHit"`
	Traced     bool               `json:"traced"`
	Generation uint64             `json:"generation"`
}

type queryResult struct {
	Node  dkindex.NodeID `json:"node"`
	Label string         `json:"label"`
}

// defaultListed and maxListed bound how many results a query response
// lists: defaultListed when the request carries no limit= parameter,
// maxListed no matter what it asks for (count always reports the full
// result size).
const (
	defaultListed = 1000
	maxListed     = 10000
)

// maxBatchQueries bounds one POST /v1/query body.
const maxBatchQueries = 256

// parseLimit maps the HTTP limit parameter onto Request.Limit: absent means
// defaultListed, an explicit 0 means "count only" (dkindex.Request uses a
// negative limit for that), anything else is clamped to maxListed.
func parseLimit(ls string) (int, error) {
	if ls == "" {
		return defaultListed, nil
	}
	v, err := strconv.Atoi(ls)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("limit= must be a non-negative integer")
	}
	if v == 0 {
		return -1, nil
	}
	return min(v, maxListed), nil
}

// runQuery executes one request and renders the response shape shared by
// every query endpoint. It stamps the response's request ID onto the query as
// its origin (so a sampled trace links back to the request) and offers the
// execution to the slow-query log with its cost counters.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, req dkindex.Request) (*queryResponse, error) {
	kind := req.Kind
	if kind == "" {
		kind = dkindex.KindPath
	}
	req.Origin = w.Header().Get(headerRequestID)
	start := time.Now()
	res, err := s.idx.Run(req)
	entry := obs.SlowEntry{
		Time:      start,
		RequestID: req.Origin,
		Route:     routeLabel(r.URL.Path),
		Method:    r.Method,
		Kind:      string(kind),
		Query:     req.Text,
		Duration:  time.Since(start),
	}
	if err != nil {
		entry.Status, _ = queryErrorStatus(err)
		s.obs.Slow.Add(entry)
		return nil, err
	}
	entry.Status = http.StatusOK
	entry.CacheHit = res.CacheHit
	entry.Traced = res.Traced
	entry.Generation = res.Generation
	entry.IndexNodesVisited = res.Stats.IndexNodesVisited
	entry.DataNodesValidated = res.Stats.DataNodesValidated
	entry.Validations = res.Stats.Validations
	entry.Results = res.Total
	s.obs.Slow.Add(entry)
	out := &queryResponse{
		Query:      req.Text,
		Kind:       string(kind),
		Count:      res.Total,
		Cost:       res.Stats,
		CacheHit:   res.CacheHit,
		Traced:     res.Traced,
		Generation: res.Generation,
		// Preallocate exactly: result sets can run to thousands of nodes
		// and append-doubling churn showed up in serving profiles.
		Results: make([]queryResult, 0, len(res.Nodes)),
	}
	for _, n := range res.Nodes {
		out.Results = append(out.Results, queryResult{Node: n, Label: res.LabelName(n)})
	}
	return out, nil
}

func (s *Server) handleLegacyQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, err := parseLimit(q.Get("limit"))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadQuery, err)
		return
	}
	req := dkindex.Request{Limit: limit}
	switch {
	case q.Get("path") != "":
		req.Kind, req.Text = dkindex.KindPath, q.Get("path")
	case q.Get("rpe") != "":
		req.Kind, req.Text = dkindex.KindRPE, q.Get("rpe")
	case q.Get("twig") != "":
		req.Kind, req.Text = dkindex.KindTwig, q.Get("twig")
	default:
		writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("one of path=, rpe= or twig= is required"))
		return
	}
	out, err := s.runQuery(w, r, req)
	if err != nil {
		status, code := queryErrorStatus(err)
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleV1Query(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, err := parseLimit(q.Get("limit"))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadQuery, err)
		return
	}
	text := q.Get("q")
	if text == "" {
		writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("q= is required"))
		return
	}
	kind := dkindex.Kind(q.Get("kind"))
	switch kind {
	case "", dkindex.KindPath, dkindex.KindRPE, dkindex.KindTwig:
	default:
		writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("kind= must be path, rpe or twig"))
		return
	}
	out, err := s.runQuery(w, r, dkindex.Request{Kind: kind, Text: text, Limit: limit})
	if err != nil {
		status, code := queryErrorStatus(err)
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// queryErrorStatus maps a failed query to its HTTP status and error code:
// 413 too_large for a query over the evaluator's size limit, 400 bad_query
// for every other failure.
func queryErrorStatus(err error) (int, string) {
	if errors.Is(err, dkindex.ErrQueryTooLarge) {
		return http.StatusRequestEntityTooLarge, codeTooLarge
	}
	return http.StatusBadRequest, codeBadQuery
}

// batchQuery is one item of a POST /v1/query body.
type batchQuery struct {
	Kind  string `json:"kind"`
	Q     string `json:"q"`
	Limit *int   `json:"limit"`
}

// handleQueryBatch answers every query in the body from one snapshot: all
// items carry the same generation even if mutations land mid-batch.
// Per-item errors are reported in place so one bad query does not void the
// rest of the batch.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Queries []batchQuery `json:"queries"`
	}
	if err := decodeJSON(w, r, &body); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(body.Queries) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("queries must not be empty"))
		return
	}
	if len(body.Queries) > maxBatchQueries {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Errorf("at most %d queries per batch", maxBatchQueries))
		return
	}
	reqID := w.Header().Get(headerRequestID)
	reqs := make([]dkindex.Request, len(body.Queries))
	for i, bq := range body.Queries {
		limit := defaultListed
		if bq.Limit != nil {
			if *bq.Limit < 0 {
				writeError(w, http.StatusBadRequest, codeBadRequest,
					fmt.Errorf("queries[%d]: limit must be non-negative", i))
				return
			}
			if *bq.Limit == 0 {
				limit = -1
			} else {
				limit = min(*bq.Limit, maxListed)
			}
		}
		reqs[i] = dkindex.Request{Kind: dkindex.Kind(bq.Kind), Text: bq.Q, Limit: limit, Origin: reqID}
	}
	start := time.Now()
	batch := s.idx.RunBatch(reqs)
	// The batch enters the slow log as one entry (items are not individually
	// timed); the aggregated cost counters still attribute the work.
	bentry := obs.SlowEntry{
		Time: start, RequestID: reqID, Route: routeLabel(r.URL.Path), Method: r.Method,
		Kind: "batch", Query: fmt.Sprintf("%d queries", len(reqs)),
		Status: http.StatusOK, Duration: time.Since(start),
	}
	items := make([]any, len(batch))
	var generation uint64
	for i, br := range batch {
		if br.Err != nil {
			_, code := queryErrorStatus(br.Err)
			items[i] = map[string]string{"error": br.Err.Error(), "code": code}
			continue
		}
		res := br.Result
		generation = res.Generation
		bentry.Generation = res.Generation
		bentry.Traced = bentry.Traced || res.Traced
		bentry.IndexNodesVisited += res.Stats.IndexNodesVisited
		bentry.DataNodesValidated += res.Stats.DataNodesValidated
		bentry.Validations += res.Stats.Validations
		bentry.Results += res.Total
		out := &queryResponse{
			Query:      reqs[i].Text,
			Kind:       string(reqs[i].Kind),
			Count:      res.Total,
			Cost:       res.Stats,
			CacheHit:   res.CacheHit,
			Traced:     res.Traced,
			Generation: res.Generation,
			Results:    make([]queryResult, 0, len(res.Nodes)),
		}
		if out.Kind == "" {
			out.Kind = string(dkindex.KindPath)
		}
		for _, n := range res.Nodes {
			out.Results = append(out.Results, queryResult{Node: n, Label: res.LabelName(n)})
		}
		items[i] = out
	}
	s.obs.Slow.Add(bentry)
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": generation,
		"results":    items,
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	if path == "" {
		writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("path= is required"))
		return
	}
	e, err := s.idx.Explain(path)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadQuery, err)
		return
	}
	writeJSON(w, http.StatusOK, e)
}

type edgeRequest struct {
	From dkindex.NodeID `json:"from"`
	To   dkindex.NodeID `json:"to"`
}

func (s *Server) handleAddEdge(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req edgeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if err := s.idx.AddEdge(req.From, req.To); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "added"})
}

func (s *Server) handleRemoveEdge(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req edgeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if err := s.idx.RemoveEdge(req.From, req.To); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

func (s *Server) handleAddDocument(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	defer body.Close()
	mapping, err := s.idx.AddDocument(body, nil)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "inserted", "nodes": len(mapping)})
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req struct {
		Label string `json:"label"`
		K     int    `json:"k"`
	}
	if err := decodeJSON(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.K < 0 || req.K > 64 {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("k out of range"))
		return
	}
	if err := s.idx.PromoteLabel(req.Label, req.K); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "promoted", "indexNodes": s.idx.Stats().IndexNodes})
}

func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req struct {
		Reqs map[string]int `json:"reqs"`
	}
	if err := decodeJSON(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if err := s.idx.Demote(req.Reqs); err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "demoted", "indexNodes": s.idx.Stats().IndexNodes})
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req struct {
		Budget int `json:"budget"`
	}
	if err := decodeJSON(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	reqs, err := s.idx.Optimize(req.Budget)
	if err != nil {
		writeError(w, http.StatusConflict, codeConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "optimized",
		"requirements": reqs,
		"indexNodes":   s.idx.Stats().IndexNodes,
	})
}

// bufPool recycles the request/response staging buffers: decoding drains the
// body into a pooled buffer and encoding renders into one before a single
// Write, so the JSON plumbing stops allocating per request.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxJSONBody bounds JSON request bodies (XML documents have their own,
// larger bound in handleAddDocument).
const maxJSONBody = 1 << 20

// errTooLarge marks a JSON body that exceeded maxJSONBody.
var errTooLarge = errors.New("request body too large")

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	// MaxBytesReader (rather than a bare LimitReader) also closes the body
	// and tells the HTTP server to stop reading the connection, so an
	// oversized body cannot be streamed in indefinitely.
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxJSONBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errTooLarge
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, `{"error":"encoding failed","code":"internal"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	body := map[string]string{"error": err.Error(), "code": code}
	// The middleware stamps the response's X-Request-ID before dispatch, so
	// every error body carries the same ID the client can grep its logs for.
	if id := w.Header().Get(headerRequestID); id != "" {
		body["requestId"] = id
	}
	writeJSON(w, status, body)
}

// writeDecodeError renders a decodeJSON failure: 413 for oversized bodies,
// 400 for everything else.
func writeDecodeError(w http.ResponseWriter, err error) {
	if errors.Is(err, errTooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, err)
}
