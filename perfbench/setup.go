package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dkindex"
	"dkindex/internal/eval"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
	"dkindex/internal/loadgen"
	"dkindex/internal/obs"
	"dkindex/internal/rpe"
	"dkindex/internal/server"
)

// env is one booted system: the store-backed index behind the real HTTP
// handler on a loopback listener.
type env struct {
	ds    *experiments.Dataset
	idx   *dkindex.Index
	store *dkindex.Store
	obs   *obs.Observer
	dir   string
	// srv is swapped when the restart workload boots a recovered index
	// behind the same listener.
	srv  atomic.Pointer[server.Server]
	hs   *http.Server
	base string
	done chan struct{}
}

// setupTimes are one set-up's phase wall times (setup_s is their total plus
// boot and the first 200 response).
type setupTimes struct {
	total, xmark, build, create time.Duration
	rounds                      int
}

// queryLoadSeed fixes the dataset's 100-query load (BENCH_7's, at seed 1):
// the load sets the index's requirements and the read plan's contents, and a
// different load is a different workload, not a different sample of one.
// The run's -seed orders the plan and draws the write edges instead.
const queryLoadSeed = 1

// newObserver matches dkserve's: 256 events, one query in 64 traced.
func newObserver() *obs.Observer {
	return obs.NewObserverWith(obs.NewRegistry(), obs.NewStream(256), obs.NewTracer(64, 32))
}

// setup generates the dataset, builds the index, creates its store, boots
// the server and waits for the first 200 — everything setup_s times.
func (b *bench) setup(n int) (*env, setupTimes, error) {
	var st setupTimes
	var err error
	e := &env{obs: newObserver(), dir: filepath.Join(b.cfg.WorkDir, fmt.Sprintf("store-%d", n))}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, st, err
	}
	begin := time.Now()
	st.xmark = b.rec.timed("datagen.xmark", "setup", func() {
		e.ds, err = experiments.XMarkDataset(b.cfg.Scale, queryLoadSeed)
	})
	if err != nil {
		return nil, st, err
	}
	st.build = b.rec.timed("core.build", "setup", func() {
		e.idx = dkindex.FromGraph(e.ds.G, reqNames(e.ds))
	})
	st.rounds = e.idx.DK().Stats.Rounds
	e.idx.Observe(e.obs)
	if b.cfg.Workload == "read_cold" {
		e.idx.SetResultCache(0)
	}
	st.create = b.rec.timed("store.create", "setup", func() {
		e.store, err = dkindex.CreateStore(e.dir, e.idx, &dkindex.StoreOptions{Observer: e.obs})
	})
	if err != nil {
		return nil, st, err
	}
	if err := b.arm(e.idx); err != nil {
		return nil, st, err
	}
	if err := b.boot(e); err != nil {
		return nil, st, err
	}
	st.total = time.Since(begin)
	return e, st, nil
}

// arm starts group commit at the dkserve defaults (MaxBatch 128, flush as
// soon as the committer is free).
func (b *bench) arm(idx *dkindex.Index) error {
	return idx.StartBatching(dkindex.BatchOptions{MaxBatch: dkindex.DefaultMaxBatch})
}

// boot serves e.idx on a fresh loopback listener and waits for a 200.
func (b *bench) boot(e *env) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv.Store(server.NewBackend(tracedIndex{e.idx, b.rec}))
	e.hs = &http.Server{Handler: traceHandler(b.rec, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.srv.Load().ServeHTTP(w, r)
	}))}
	e.base = "http://" + ln.Addr().String()
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln)
	}()
	for i := 0; ; i++ {
		resp, err := b.client.Get(e.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if i == 100 {
			return fmt.Errorf("server at %s never answered 200", e.base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopServer shuts the listener down and waits for the serve loop to exit.
func (e *env) stopServer() {
	if e.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.done
	e.hs = nil
}

// close stops everything the env started and removes its store.
func (e *env) close() {
	e.stopServer()
	if e.idx != nil {
		e.idx.StopBatching()
	}
	if e.store != nil {
		e.store.Close()
	}
	os.RemoveAll(e.dir)
}

func reqNames(ds *experiments.Dataset) map[string]int {
	out := make(map[string]int)
	for l, k := range ds.W.Requirements() {
		out[ds.G.Labels().Name(l)] = k
	}
	return out
}

// buildServePlan derives the mixed read plan from the dataset's query load:
// every workload path verbatim, a descendant RPE (first//last) and a
// branching twig (first[second].second) from each long-enough path, plus four
// XMark staples. Ops the index rejects are dropped, so every measured request
// is a 200.
func buildServePlan(ds *experiments.Dataset, idx *dkindex.Index) []loadgen.Op {
	labels := ds.G.Labels()
	var candidates []loadgen.Op
	for _, q := range ds.W.Queries {
		path := q.Format(labels)
		candidates = append(candidates, loadgen.Op{Kind: "path", Query: path})
		seg := strings.Split(path, ".")
		if len(seg) >= 3 {
			candidates = append(candidates, loadgen.Op{Kind: "rpe", Query: seg[0] + "//" + seg[len(seg)-1]})
		}
		if len(seg) >= 2 {
			candidates = append(candidates, loadgen.Op{Kind: "twig", Query: seg[0] + "[" + seg[1] + "]." + seg[1]})
		}
	}
	candidates = append(candidates,
		loadgen.Op{Kind: "rpe", Query: "open_auction.itemref//name"},
		loadgen.Op{Kind: "rpe", Query: "person.name|item.name"},
		loadgen.Op{Kind: "twig", Query: "item[mailbox].name"},
		loadgen.Op{Kind: "twig", Query: "person[name].emailaddress"},
	)
	plan := candidates[:0]
	for _, op := range candidates {
		if _, err := idx.Run(dkindex.Request{Kind: dkindex.Kind(op.Kind), Text: op.Query, Limit: -1}); err == nil {
			plan = append(plan, op)
		}
	}
	return plan
}

// shufflePlan orders the plan by the run's seed.
func shufflePlan(plan []loadgen.Op, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
}

// planKey is the query string loadgen sends for op; the checker looks
// expected counts up by it.
func planKey(op loadgen.Op) string {
	return "kind=" + url.QueryEscape(op.Kind) + "&q=" + url.QueryEscape(op.Query)
}

// expectedCounts evaluates every distinct plan op on the data graph with the
// reference evaluators (no index involved). Distinct queries are spread over
// GOMAXPROCS workers.
func expectedCounts(g *graph.Graph, plan []loadgen.Op) (map[string]int, error) {
	var ops []loadgen.Op
	seen := make(map[string]bool)
	for _, op := range plan {
		if k := planKey(op); !seen[k] {
			seen[k] = true
			ops = append(ops, op)
		}
	}
	counts := make([]int, len(ops))
	errs := make([]error, len(ops))
	var next atomic.Int64
	done := make(chan struct{})
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				counts[i], errs[i] = referenceCount(g, ops[i])
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	out := make(map[string]int, len(ops))
	for i, op := range ops {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference %s %q: %w", op.Kind, op.Query, errs[i])
		}
		out[planKey(op)] = counts[i]
	}
	return out, nil
}

func referenceCount(g *graph.Graph, op loadgen.Op) (int, error) {
	switch op.Kind {
	case "path":
		q, err := eval.ParseQuery(g.Labels(), op.Query)
		if err != nil {
			return 0, err
		}
		res, _ := eval.Data(g, q)
		return len(res), nil
	case "rpe":
		e, err := rpe.Parse(op.Query)
		if err != nil {
			return 0, err
		}
		res, _ := eval.DataRPE(g, rpe.CompileExpr(e, g.Labels()))
		return len(res), nil
	case "twig":
		tw, err := eval.ParseTwig(g.Labels(), op.Query)
		if err != nil {
			return 0, err
		}
		res, _ := eval.DataTwig(g, tw)
		return len(res), nil
	}
	return 0, fmt.Errorf("unknown kind %q", op.Kind)
}

// writeBatchSize is the mutations per /v1/mutate request: 4 add/remove pairs.
const writeBatchSize = 8

// writeBatches cuts the edges into batches of add/remove pairs. Each batch
// cancels out, so a committed batch leaves every query count unchanged.
func writeBatches(edges [][2]graph.NodeID) [][]dkindex.Mutation {
	var out [][]dkindex.Mutation
	for i := 0; i+writeBatchSize/2 <= len(edges); i += writeBatchSize / 2 {
		var ms []dkindex.Mutation
		for _, e := range edges[i : i+writeBatchSize/2] {
			ms = append(ms,
				dkindex.Mutation{Op: dkindex.MutAddEdge, From: e[0], To: e[1]},
				dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: e[0], To: e[1]})
		}
		out = append(out, ms)
	}
	return out
}

// mutatePlan renders write batches as loadgen /v1/mutate ops.
func mutatePlan(batches [][]dkindex.Mutation) []loadgen.Op {
	out := make([]loadgen.Op, len(batches))
	for i, ms := range batches {
		var sb strings.Builder
		sb.WriteString(`{"mutations":[`)
		for j, m := range ms {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"op":%q,"from":%d,"to":%d}`, m.Op, m.From, m.To)
		}
		sb.WriteString(`]}`)
		out[i] = loadgen.Op{Kind: loadgen.KindMutate, Body: sb.String()}
	}
	return out
}

// tailDoc is the document the restart tail inserts: one person with a name,
// so it moves the counts of every plan query ending in person or name.
const tailDoc = `<site><people><person><name>tail</name></person></people></site>`
