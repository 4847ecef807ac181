package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dkindex"
	"dkindex/internal/eval"
	"dkindex/internal/fsx"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/rpe"
	"dkindex/internal/server"
	"dkindex/internal/wal"
	"dkindex/internal/xmlgraph"
)

// probes are the benchmark's own timed calls into single layers, made after
// the traced load on the live snapshot and store. They give the per-layer
// numbers the request spans cannot see inside dkindex.Run and the commit.
type probes struct {
	// parse and eval are the per-query times, keyed like dkindex.run spans.
	parse, eval map[string]time.Duration

	parseUS                 float64
	evalUS                  map[string]float64 // by kind, plan-weighted
	visited, validated      float64            // plan-weighted means
	validatedSum, resultSum float64
	setBytes                float64

	cloneMS, cloneAllocs, cloneDetachedMS float64
	edgeUS, docMS                         float64

	walAppendMS, walBytesPerMut float64
	decodeS, replayDecodeS      float64
	openS                       float64
	opens                       int

	// commits is the probe's own group commits (zero on write_churn, whose
	// traffic commits), applyMS their mean ApplyBatch wall.
	commits commitDelta
	applyMS float64
}

const probeReps = 3

// probe runs every layer probe.
func (b *bench) probe() (*probes, error) {
	pr := &probes{parse: map[string]time.Duration{}, eval: map[string]time.Duration{}, evalUS: map[string]float64{}}
	e := b.env
	if err := b.probeEval(pr, e.idx.DK().IG); err != nil {
		return nil, err
	}
	if err := b.probeCore(pr, e.idx); err != nil {
		return nil, err
	}
	var recs []wal.Record
	var err error
	if b.cfg.Workload == "write_churn" {
		if recs, err = b.walStats(pr); err != nil {
			return nil, err
		}
	}
	if err := b.probeRecovery(pr); err != nil {
		return nil, err
	}
	if b.cfg.Workload != "write_churn" {
		if err := b.probeCommits(pr); err != nil {
			return nil, err
		}
		if recs, err = b.walStats(pr); err != nil {
			return nil, err
		}
	}
	if err := b.probeAppend(pr, recs); err != nil {
		return nil, err
	}
	return pr, nil
}

// probeEval parses and evaluates every distinct plan query on the live index
// graph, probeReps times each, with the cache and the facade out of the way.
func (b *bench) probeEval(pr *probes, ig *index.IndexGraph) error {
	labels := ig.Data().Labels()
	weight := make(map[string]int)
	for _, op := range b.plan {
		weight[op.Kind+"\x00"+op.Query]++
	}
	keys := make([]string, 0, len(weight))
	for k := range weight {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var n, pathN float64
	kindN := map[string]float64{}
	for _, key := range keys {
		kind, text, _ := strings.Cut(key, "\x00")
		w := float64(weight[key])
		var parse, ev time.Duration
		var cost eval.Cost
		var results int
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			var run func() ([]graph.NodeID, eval.Cost)
			switch kind {
			case "path":
				q, err := eval.ParseQuery(labels, text)
				if err != nil {
					return err
				}
				run = func() ([]graph.NodeID, eval.Cost) { return eval.IndexTraced(ig, q, nil) }
				if r == 0 {
					matched, _ := eval.MatchedIndexNodes(ig, q)
					for _, m := range matched {
						pr.setBytes += w * float64(ig.ExtentSet(m).MemBytes())
					}
					pathN += w
				}
			case "rpe":
				x, err := rpe.Parse(text)
				if err != nil {
					return err
				}
				c := rpe.CompileExpr(x, labels)
				run = func() ([]graph.NodeID, eval.Cost) { return eval.IndexRPETraced(ig, c, nil) }
			case "twig":
				tw, err := eval.ParseTwig(labels, text)
				if err != nil {
					return err
				}
				run = func() ([]graph.NodeID, eval.Cost) { return eval.IndexTwigTraced(ig, tw, nil) }
			default:
				return fmt.Errorf("unknown kind %q", kind)
			}
			parse += time.Since(t0)
			var res []graph.NodeID
			ev += b.rec.timed("eval."+kind, "probe.eval", func() { res, cost = run() })
			results = len(res)
		}
		pr.parse[key] = parse / probeReps
		pr.eval[key] = ev / probeReps
		pr.parseUS += w * us(pr.parse[key])
		pr.evalUS[kind] += w * us(pr.eval[key])
		kindN[kind] += w
		pr.visited += w * float64(cost.IndexNodesVisited)
		pr.validated += w * float64(cost.DataNodesValidated)
		pr.resultSum += w * float64(results)
		n += w
	}
	pr.parseUS /= n
	pr.visited /= n
	pr.validatedSum = pr.validated
	pr.validated /= n
	for k := range pr.evalUS {
		pr.evalUS[k] /= kindN[k]
	}
	if pathN > 0 {
		pr.setBytes /= pathN
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeCore times the copy-on-write clones a commit pays, edge updates
// (Algorithms 4-5) and document insertion (Algorithm 3) on private copies of
// the live snapshot.
func (b *bench) probeCore(pr *probes, idx *dkindex.Index) error {
	dk := idx.DK()
	var allocs uint64
	var total time.Duration
	for r := 0; r < probeReps; r++ {
		m0 := readMem()
		total += b.rec.timed("core.clone", "probe.core", func() { _ = dk.CloneForUpdate() })
		allocs += readMem().Mallocs - m0.Mallocs
	}
	pr.cloneMS = ms(total) / probeReps
	pr.cloneAllocs = float64(allocs) / probeReps
	total = 0
	for r := 0; r < probeReps; r++ {
		total += b.rec.timed("core.clone_detached", "probe.core", func() { _ = dk.CloneDetached() })
	}
	pr.cloneDetachedMS = ms(total) / probeReps

	c := dk.CloneForUpdate()
	total = 0
	ops := 0
	for _, batch := range b.batches {
		for _, m := range batch {
			name := "core.add_edge"
			if m.Op == dkindex.MutRemoveEdge {
				name = "core.remove_edge"
			}
			total += b.rec.timed(name, "probe.core", func() {
				if m.Op == dkindex.MutAddEdge {
					c.AddEdge(m.From, m.To)
				} else {
					c.RemoveEdge(m.From, m.To)
				}
			})
			ops++
		}
	}
	pr.edgeUS = us(total) / float64(ops)

	total = 0
	for r := 0; r < probeReps; r++ {
		c := dk.CloneDetached()
		h, _, err := xmlgraph.Load(strings.NewReader(tailDoc), &xmlgraph.Options{})
		if err != nil {
			return err
		}
		total += b.rec.timed("core.add_subgraph", "probe.core", func() { _, err = c.AddSubgraph(h) })
		if err != nil {
			return err
		}
	}
	pr.docMS = ms(total) / probeReps
	return nil
}

// newest returns the lexically last file of dir matching pattern (store
// file names carry zero-padded epochs).
func newest(dir, pattern string) (string, error) {
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(m) == 0 {
		return "", fmt.Errorf("no %s in %s (%v)", pattern, dir, err)
	}
	sort.Strings(m)
	return m[len(m)-1], nil
}

// probeRecovery splits a recovery into checkpoint decode, WAL decode and
// record re-application. restart uses its own traced recoveries for the
// OpenStore time; the other workloads checkpoint, then close and reopen the
// live store once.
func (b *bench) probeRecovery(pr *probes) error {
	e := b.env
	if b.cfg.Workload == "restart" {
		for _, s := range b.rec.snapshot() {
			if s.Name == "store.open" && s.Parent == "recover" {
				pr.openS += s.dur().Seconds()
				pr.opens++
			}
		}
		pr.openS /= float64(max(pr.opens, 1))
	} else {
		if err := e.store.Checkpoint(); err != nil {
			return err
		}
		e.idx.StopBatching()
		if err := e.store.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := b.reopen(); err != nil {
			return err
		}
		pr.openS, pr.opens = time.Since(t0).Seconds(), 1
		e.srv.Store(server.NewBackend(tracedIndex{e.idx, b.rec}))
	}
	ckpt, err := newest(e.dir, "checkpoint-*.dkx")
	if err != nil {
		return err
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		return err
	}
	for r := 0; r < probeReps; r++ {
		pr.decodeS += b.rec.timed("codec.decode", "probe.recovery", func() { _, err = dkindex.Open(bytes.NewReader(data)) }).Seconds()
		if err != nil {
			return err
		}
	}
	pr.decodeS /= probeReps
	log, err := newest(e.dir, "wal-*.log")
	if err != nil {
		return err
	}
	for r := 0; r < probeReps; r++ {
		pr.replayDecodeS += b.rec.timed("wal.replay", "probe.recovery", func() {
			_, err = wal.Replay(fsx.OS{}, log, func(wal.Record) error { return nil })
		}).Seconds()
		if err != nil {
			return err
		}
	}
	pr.replayDecodeS /= probeReps
	return nil
}

// probeCommits sends tailBatches write batches straight through the facade
// (ApplyBatch, group commit armed) on workloads whose load does not write.
func (b *bench) probeCommits(pr *probes) error {
	e := b.env
	c0 := commitStats(e.obs)
	var wall time.Duration
	for i := 0; i < tailBatches; i++ {
		var acks []dkindex.Ack
		var err error
		wall += b.rec.timed("dkindex.apply_batch", "probe.commit", func() {
			acks, err = e.idx.ApplyBatch(b.batches[i%len(b.batches)])
		})
		if err != nil {
			return err
		}
		b.tr.attempted.Add(1)
		for _, a := range acks {
			if a.Err != nil {
				b.tr.fail("probe commit: %v", a.Err)
				break
			}
		}
	}
	pr.commits = c0.to(commitStats(e.obs))
	pr.applyMS = ms(wall) / tailBatches
	return nil
}

// walStats measures the live WAL's bytes per logged mutation and returns its
// records for the append probe.
func (b *bench) walStats(pr *probes) ([]wal.Record, error) {
	log, err := newest(b.env.dir, "wal-*.log")
	if err != nil {
		return nil, err
	}
	var recs []wal.Record
	res, err := wal.Replay(fsx.OS{}, log, func(r wal.Record) error {
		r.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Records > 0 {
		pr.walBytesPerMut = float64(fileSize(log)-int64(len(wal.Header()))) / float64(res.Records)
	}
	return recs, nil
}

// probeAppend times AppendGroup (write + one fsync) of write-batch-sized
// groups of real records on a scratch log beside the store.
func (b *bench) probeAppend(pr *probes, recs []wal.Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("append probe: no WAL records")
	}
	path := filepath.Join(b.cfg.WorkDir, "probe-wal.log")
	os.Remove(path)
	defer os.Remove(path)
	w, err := wal.Create(fsx.OS{}, path)
	if err != nil {
		return err
	}
	defer w.Close()
	var total time.Duration
	groups := 0
	for i := 0; i+writeBatchSize <= len(recs) && groups < 2*tailBatches; i += writeBatchSize {
		g := make([]wal.GroupRecord, writeBatchSize)
		for j, r := range recs[i : i+writeBatchSize] {
			g[j] = wal.GroupRecord{Op: r.Op, Payload: r.Payload}
		}
		total += b.rec.timed("wal.append_group", "probe.wal", func() { _, err = w.AppendGroup(g) })
		if err != nil {
			return err
		}
		groups++
	}
	if groups == 0 {
		return fmt.Errorf("append probe: fewer than %d WAL records", writeBatchSize)
	}
	pr.walAppendMS = ms(total) / float64(groups)
	return nil
}

// gcPauseMS is the mean stop-the-world pause per GC cycle of a phase.
func gcPauseMS(m memDelta) float64 {
	if m.gcs == 0 {
		return 0
	}
	return float64(m.pauseNS) / 1e6 / float64(m.gcs)
}
