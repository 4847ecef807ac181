package dkindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"dkindex/internal/codec"
	"dkindex/internal/core"
	"dkindex/internal/datagen"
	"dkindex/internal/graph"
	"dkindex/internal/xmlgraph"
)

// fingerprintDK hashes one snapshot's canonical serialization.
func fingerprintDK(tb testing.TB, dk *core.DK) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := codec.SaveDK(&buf, dk); err != nil {
		tb.Error(err)
		return ""
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestCloneIsolationUnderReaders mutates clones of the published snapshot —
// edge additions and removals, a document insert that interns new labels,
// and a promotion — first directly and then through ApplyBatch, while
// readers query the snapshot, walk its data graph and serialize it (run
// under -race). The snapshot's Save fingerprint must never move: a clone
// shares its chunks, and no write on the clone side may reach them.
func TestCloneIsolationUnderReaders(t *testing.T) {
	var doc bytes.Buffer
	if err := datagen.XMark(datagen.XMarkScale(0.02)).WriteXML(&doc); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadXML(bytes.NewReader(doc.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetResultCache(0) // every read evaluates against the snapshot
	snap := idx.handle.Load()
	pub := snap.dk
	want := fingerprintDK(t, pub)
	reqs := []Request{
		{Kind: KindPath, Text: "site.people.person.name", Limit: 0},
		{Kind: KindRPE, Text: "site//item.name", Limit: 0},
		{Kind: KindTwig, Text: "person[name].emailaddress", Limit: 0},
	}
	totals := make([]int, len(reqs))
	for i, req := range reqs {
		res, err := idx.runOn(snap, req)
		if err != nil {
			t.Fatal(err)
		}
		totals[i] = res.Total
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			g := pub.IG.Data()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(len(reqs))
				res, err := idx.runOn(snap, reqs[k])
				if err != nil || res.Total != totals[k] {
					t.Errorf("reader: %q = %d (%v), want %d", reqs[k].Text, res.Total, err, totals[k])
					return
				}
				n := graph.NodeID(rng.Intn(g.NumNodes()))
				for _, c := range g.Children(n) {
					if !g.HasEdge(n, c) || g.Label(c) == graph.InvalidLabel {
						t.Errorf("reader: torn row at %d", n)
						return
					}
				}
				if seed == 0 && i%8 == 0 && fingerprintDK(t, pub) != want {
					t.Error("reader: published snapshot changed under a clone writer")
					return
				}
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(42))
	newDoc := `<site><cowshelf><cowbook><name/></cowbook></cowshelf></site>`
	c := pub.Clone()
	g := c.IG.Data()
	for i := 0; i < 200; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if v != g.Root() {
			c.AddEdge(u, v)
		}
		if ch := g.Children(u); len(ch) > 1 {
			c.RemoveEdge(u, ch[rng.Intn(len(ch))])
		}
	}
	h, _, err := xmlgraph.LoadString(newDoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddSubgraph(h); err != nil {
		t.Fatal(err)
	}
	c.PromoteLabel(c.IG.Data().Labels().Lookup("name"), 4)
	if err := c.IG.Data().Validate(); err != nil {
		t.Errorf("clone data graph: %v", err)
	}
	if err := c.IG.Validate(); err != nil {
		t.Errorf("clone index: %v", err)
	}

	// The same mix through the commit path, which clones the live snapshot.
	acks, err := idx.ApplyBatch([]Mutation{
		{Op: MutAddEdge, From: 1, To: graph.NodeID(pub.IG.Data().NumNodes() - 1)},
		{Op: MutRemoveEdge, From: 1, To: graph.NodeID(pub.IG.Data().NumNodes() - 1)},
		{Op: MutAddEdge, From: 2, To: 3},
		{Op: MutAddDocument, Doc: []byte(newDoc)},
		{Op: MutPromote, Label: "cowbook", K: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		if a.Err != nil {
			t.Fatal(a.Err)
		}
	}
	close(stop)
	wg.Wait()

	if got := fingerprintDK(t, pub); got != want {
		t.Fatal("published snapshot fingerprint changed")
	}
	if pub.IG.Data().Labels().Lookup("cowbook") != graph.InvalidLabel {
		t.Fatal("a label interned by a clone leaked into the published table")
	}
	if idx.DK().IG.Data().Labels().Lookup("cowbook") == graph.InvalidLabel {
		t.Fatal("the committed document's labels are missing")
	}
}
