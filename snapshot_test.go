package dkindex

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dkindex/internal/rpe"
)

// TestRunMatchesWrappers proves the deprecated per-kind methods are thin
// views over Run: same nodes, same cost.
func TestRunMatchesWrappers(t *testing.T) {
	idx := open(t)
	for _, tc := range []struct {
		kind Kind
		text string
		via  func() ([]NodeID, QueryStats, error)
	}{
		{KindPath, "director.movie.title", func() ([]NodeID, QueryStats, error) { return idx.Query("director.movie.title") }},
		{KindRPE, "director//title", func() ([]NodeID, QueryStats, error) { return idx.QueryRPE("director//title") }},
		{KindTwig, "movie[title]", func() ([]NodeID, QueryStats, error) { return idx.QueryTwig("movie[title]") }},
	} {
		res, err := idx.Run(Request{Kind: tc.kind, Text: tc.text})
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		nodes, stats, err := tc.via()
		if err != nil {
			t.Fatalf("%s wrapper: %v", tc.kind, err)
		}
		if len(nodes) != len(res.Nodes) || stats != res.Stats {
			t.Errorf("%s: wrapper (%v, %+v) != Run (%v, %+v)", tc.kind, nodes, stats, res.Nodes, res.Stats)
		}
		for i := range nodes {
			if nodes[i] != res.Nodes[i] {
				t.Errorf("%s: node %d differs", tc.kind, i)
			}
		}
		if res.Total != len(res.Nodes) {
			t.Errorf("%s: Total %d != len(Nodes) %d with no limit", tc.kind, res.Total, len(res.Nodes))
		}
	}
	// An empty kind means path.
	res, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil || res.Total != 2 {
		t.Errorf("default kind: %v, total %d", err, res.Total)
	}
	if _, err := idx.Run(Request{Kind: "nope", Text: "a"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRunLimit(t *testing.T) {
	idx := open(t)
	full, err := idx.Run(Request{Text: "movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total != 3 || len(full.Nodes) != 3 {
		t.Fatalf("movie.title total = %d, want 3", full.Total)
	}
	capped, err := idx.Run(Request{Text: "movie.title", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Total != 3 || len(capped.Nodes) != 2 {
		t.Errorf("limit 2: total %d nodes %d", capped.Total, len(capped.Nodes))
	}
	for i := range capped.Nodes {
		if capped.Nodes[i] != full.Nodes[i] {
			t.Errorf("limited nodes are not a prefix at %d", i)
		}
	}
	countOnly, err := idx.Run(Request{Text: "movie.title", Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if countOnly.Total != 3 || countOnly.Nodes != nil {
		t.Errorf("limit -1: total %d nodes %v", countOnly.Total, countOnly.Nodes)
	}
	big, err := idx.Run(Request{Text: "movie.title", Limit: 100})
	if err != nil || len(big.Nodes) != 3 {
		t.Errorf("limit beyond total: %v nodes %d", err, len(big.Nodes))
	}
	// Result labels resolve against the answering snapshot.
	for _, n := range full.Nodes {
		if full.LabelName(n) != "title" {
			t.Errorf("node %d label %q", n, full.LabelName(n))
		}
	}
}

// TestResultCacheHit checks the second identical query is served from the
// cache with identical results and cost, and that Limit variants share one
// entry (the cache stores the full result set).
func TestResultCacheHit(t *testing.T) {
	idx := open(t)
	first, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first query claims a cache hit")
	}
	if idx.ResultCacheLen() == 0 {
		t.Fatal("miss did not populate the cache")
	}
	second, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("repeat missed the cache")
	}
	if second.Stats != first.Stats || second.Total != first.Total {
		t.Errorf("cached answer differs: %+v vs %+v", second, first)
	}
	limited, err := idx.Run(Request{Text: "director.movie.title", Limit: 1})
	if err != nil || !limited.CacheHit || len(limited.Nodes) != 1 || limited.Total != first.Total {
		t.Errorf("limited repeat: err %v hit %v nodes %d total %d", err, limited.CacheHit, len(limited.Nodes), limited.Total)
	}
	// Different kinds never collide even on equal text.
	if res, err := idx.Run(Request{Kind: KindRPE, Text: "director.movie.title"}); err != nil || res.CacheHit {
		t.Errorf("kind collision: err %v hit %v", err, res.CacheHit)
	}
	// Mutating the returned slice must not poison the cache.
	if len(second.Nodes) > 0 {
		second.Nodes[0] = -999
		again, _ := idx.Run(Request{Text: "director.movie.title"})
		if again.Nodes[0] == -999 {
			t.Error("caller mutation leaked into the cache")
		}
	}
}

// TestCacheInvalidationOnEveryMutation drives each mutation type and
// asserts it bumps the generation, which invalidates the cache wholesale.
func TestCacheInvalidationOnEveryMutation(t *testing.T) {
	idx := open(t)
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		t.Fatal(err)
	}
	idx.WatchLoad()

	warm := func() uint64 {
		t.Helper()
		res, err := idx.Run(Request{Text: "director.movie.title"})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := idx.Run(Request{Text: "director.movie.title"})
		if err != nil {
			t.Fatal(err)
		}
		if !res2.CacheHit {
			t.Fatal("warm-up repeat missed")
		}
		return res.Generation
	}

	mutations := []struct {
		name string
		op   func() error
	}{
		{"AddEdge", func() error { return idx.AddEdge(0, 5) }},
		{"RemoveEdge", func() error { return idx.RemoveEdge(0, 5) }},
		{"AddDocument", func() error {
			_, err := idx.AddDocument(strings.NewReader("<movieDB><movie><title/></movie></movieDB>"), nil)
			return err
		}},
		{"PromoteLabel", func() error { return idx.PromoteLabel("title", 2) }},
		{"Demote", func() error { idx.Demote(map[string]int{"title": 1}); return nil }},
		{"SetRequirements", func() error { idx.SetRequirements(map[string]int{"title": 2}); return nil }},
		{"Tune", func() error { return idx.Tune(20, 1) }},
		{"Optimize", func() error { _, err := idx.Optimize(0); return err }},
		{"Compact", func() error { _, _, err := idx.Compact(); return err }},
		{"Reload", func() error { return idx.Reload(bytes.NewReader(saved.Bytes())) }},
	}
	for _, m := range mutations {
		genBefore := warm()
		if err := m.op(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if got := idx.Generation(); got != genBefore+1 {
			t.Errorf("%s: generation %d, want %d", m.name, got, genBefore+1)
		}
		res, err := idx.Run(Request{Text: "director.movie.title"})
		if err != nil {
			t.Fatalf("%s: query after: %v", m.name, err)
		}
		if res.CacheHit {
			t.Errorf("%s: stale cache entry served after mutation", m.name)
		}
		if res.Generation != genBefore+1 {
			t.Errorf("%s: result generation %d, want %d", m.name, res.Generation, genBefore+1)
		}
	}
}

func TestRunBatchSingleSnapshot(t *testing.T) {
	idx := open(t)
	out := idx.RunBatch([]Request{
		{Text: "director.movie.title"},
		{Kind: KindTwig, Text: "movie[title]"},
		{Text: "not..a..query"},
		{Kind: KindRPE, Text: "director//name"},
	})
	if len(out) != 4 {
		t.Fatalf("batch returned %d entries", len(out))
	}
	if out[2].Err == nil {
		t.Error("malformed item did not error")
	}
	gen := out[0].Result.Generation
	for i, br := range out {
		if br.Err != nil {
			continue
		}
		if br.Result.Generation != gen {
			t.Errorf("item %d generation %d != %d", i, br.Result.Generation, gen)
		}
	}
}

func TestSetResultCacheDisables(t *testing.T) {
	idx := open(t)
	idx.SetResultCache(0)
	for i := 0; i < 3; i++ {
		res, err := idx.Run(Request{Text: "director.movie.title"})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatal("disabled cache produced a hit")
		}
	}
	if idx.ResultCacheLen() != 0 {
		t.Errorf("disabled cache holds %d entries", idx.ResultCacheLen())
	}
	// Re-enabling works and caches again.
	idx.SetResultCache(16)
	if _, err := idx.Run(Request{Text: "director.movie.title"}); err != nil {
		t.Fatal(err)
	}
	res, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil || !res.CacheHit {
		t.Errorf("re-enabled cache: err %v hit %v", err, res.CacheHit)
	}
}

// TestSnapshotIsolationAcrossMutation holds a result from before a mutation
// and checks its label view stays coherent (the old snapshot's table) while
// new queries see the new state.
func TestSnapshotIsolationAcrossMutation(t *testing.T) {
	idx := open(t)
	before, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	doc := "<movieDB><genre><movie><title/></movie></genre></movieDB>"
	if _, err := idx.AddDocument(strings.NewReader(doc), nil); err != nil {
		t.Fatal(err)
	}
	// The held result still resolves labels against its own snapshot.
	for _, n := range before.Nodes {
		if before.LabelName(n) != "title" {
			t.Errorf("held result label %q", before.LabelName(n))
		}
	}
	after, err := idx.Run(Request{Text: "genre.movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Total != 1 {
		t.Errorf("new label path found %d results, want 1", after.Total)
	}
	if after.Generation != before.Generation+1 {
		t.Errorf("generation %d -> %d, want +1", before.Generation, after.Generation)
	}
}

// TestRunRefusesOversizedRPE sends a 1 MB wildcard chain through Run: it is
// refused with ErrQueryTooLarge while parsing, before compilation, and
// consumes no cache entry. A chain at the bound is still answered.
func TestRunRefusesOversizedRPE(t *testing.T) {
	idx := open(t)
	chain := func(k int) string { return strings.TrimSuffix(strings.Repeat("_.", k), ".") }
	huge := chain(1 << 19)
	if _, err := idx.Run(Request{Kind: KindRPE, Text: huge}); !errors.Is(err, ErrQueryTooLarge) {
		t.Fatalf("1 MB chain: err %v, want ErrQueryTooLarge", err)
	}
	if n := idx.ResultCacheLen(); n != 0 {
		t.Errorf("refused query left %d cache entries", n)
	}
	if allocs := testing.AllocsPerRun(1, func() { idx.Run(Request{Kind: KindRPE, Text: huge}) }); allocs > 4*rpe.MaxStates {
		t.Errorf("refusing a 1 MB chain made %.0f allocations", allocs)
	}
	// MaxStates-1 wildcards compile to exactly MaxStates states.
	res, err := idx.Run(Request{Kind: KindRPE, Text: chain(rpe.MaxStates - 1)})
	if err != nil {
		t.Fatalf("chain at the bound: %v", err)
	}
	if res.Total != 0 {
		t.Errorf("chain of %d wildcards matched %d nodes", rpe.MaxStates-1, res.Total)
	}
}
