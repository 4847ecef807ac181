package eval_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/eval"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
	"dkindex/internal/rpe"
)

// TestIndexRPEWideAutomatonXMark audits the set-table kernel on automata of
// more than 64 states, whose state sets span several words, against the
// []bool reference on the load-tuned XMark D(k)-index. The expressions name
// only labels from the low end of the label table, so the data holds label
// ids beyond the compiled slot table, and one alternative names a label the
// data lacks, which compiles to a dead transition. Every run is repeated at
// GOMAXPROCS 1, 2 and 4, with the default fan-out threshold and with the
// worker-pool path forced, so parallel validation chunks are covered.
func TestIndexRPEWideAutomatonXMark(t *testing.T) {
	ds, err := experiments.XMarkDataset(0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	ig := core.Build(ds.G, ds.W.Requirements()).IG
	labels := ds.G.Labels()

	// The 34 lowest label ids other than the root and site, so matches of
	// the ancestor alternation sit below the top of the document and some
	// walks reach the root without one.
	var low []string
	for id := graph.LabelID(0); len(low) < 34; id++ {
		if name := labels.Name(id); name != "ROOT" && name != "site" {
			low = append(low, name)
		}
	}
	maxNamed := graph.LabelID(-1)
	for _, name := range low {
		maxNamed = max(maxNamed, labels.Lookup(name))
	}
	beyond := false
	for n := 0; n < ds.G.NumNodes(); n++ {
		if ds.G.Label(graph.NodeID(n)) > maxNamed {
			beyond = true
			break
		}
	}
	if !beyond {
		t.Fatalf("no data label above id %d: the slot table would cover every label", maxNamed)
	}

	anc := "(" + strings.Join(low, "|") + "|nosuchlabel)"
	for i, src := range []string{
		anc + "//_",
		"site." + anc + "//(name|text|" + strings.Join(low[:8], "|") + ")",
		"//" + anc + "._?." + anc,
	} {
		e, err := rpe.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if n := rpe.Compile(e, labels).NumStates(); n <= 64 {
			t.Fatalf("%s: %d states, want more than 64", src, n)
		}
		c := rpe.CompileExpr(e, labels)
		want, wantCost := eval.ReferenceIndexRPE(ig, c)
		if wantCost.Validations == 0 {
			t.Fatalf("%s: nothing validated, the kernel is not exercised", src)
		}
		for _, procs := range []int{1, 2, 4} {
			for _, threshold := range []int{0, 1} {
				t.Run(fmt.Sprintf("expr%d/procs=%d/forced=%v", i, procs, threshold == 1), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					if threshold > 0 {
						defer eval.SetValidateParallelThreshold(threshold)()
					}
					got, cost := eval.IndexRPE(ig, c)
					if !eval.SameResult(got, want) || cost != wantCost {
						t.Fatalf("%s: %d results %+v, reference %d results %+v",
							src, len(got), cost, len(want), wantCost)
					}
				})
			}
		}
	}
}
