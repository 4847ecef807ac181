package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"dkindex"
	"dkindex/internal/loadgen"
	"dkindex/internal/obs"
	"dkindex/internal/server"
)

// phase is what one measured stretch of a workload produced.
type phase struct {
	t *tally
	// wall is the time the load ran, host probes excluded; speeds are the
	// host probes' reference rates.
	wall   time.Duration
	speeds []float64
	// recoveries (restart) are the OpenStore-to-plan-answered times; passes
	// the plan passes' read throughputs, passP99 their p99 read latencies
	// (ns) and passWall their summed time.
	recoveries []time.Duration
	passes     []float64
	passP99    []float64
	passWall   time.Duration
	mem        memDelta
	commits    commitDelta
}

// memDelta is the Go runtime's view of a phase.
type memDelta struct {
	gcs     uint32
	pauseNS uint64
	alloc   uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{gcs: b.NumGC - a.NumGC, pauseNS: b.PauseTotalNs - a.PauseTotalNs, alloc: b.TotalAlloc - a.TotalAlloc}
}

// commitDelta is the write pipeline's own account of a phase, read from the
// attached obs observer: group commits, the mutations they carried, and the
// summed dk_batch_flush_duration (clone + apply + WAL fsync + publish).
type commitDelta struct {
	commits   uint64
	mutations float64
	flush     float64
}

func commitStats(o *obs.Observer) commitDelta {
	size := o.Registry.Histogram(obs.MetricBatchSize, "", nil)
	flush := o.Registry.Histogram(obs.MetricBatchFlushSeconds, "", nil)
	return commitDelta{commits: flush.Count(), mutations: size.Sum(), flush: flush.Sum()}
}

func (a commitDelta) to(b commitDelta) commitDelta {
	return commitDelta{commits: b.commits - a.commits, mutations: b.mutations - a.mutations, flush: b.flush - a.flush}
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	ms := readMem()
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (b *bench) loadgen(plan []loadgen.Op, conc int, d time.Duration, maxReq int) (*loadgen.Report, error) {
	return loadgen.Run(loadgen.Config{BaseURL: b.env.base, Plan: plan, Mode: loadgen.Closed,
		Concurrency: conc, Duration: d, MaxRequests: maxReq, Client: b.client})
}

// warm lets caches fill and lazy set-up finish before anything is timed.
func (b *bench) warm() error {
	d := min(b.cfg.Measure/5, 3*time.Second)
	switch b.cfg.Workload {
	case "restart":
		return nil // every recovery starts cold; that is what it measures
	case "write_churn":
		var wg sync.WaitGroup
		var werr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, werr = b.loadgen(b.writes, 1, d, 0)
		}()
		_, err := b.loadgen(b.plan, 1, d, 0)
		wg.Wait()
		if err == nil {
			err = werr
		}
		return err
	}
	// One full pass first, so lazy set-up finishes before timing.
	if _, err := b.loadgen(b.plan, b.conc, time.Minute, len(b.plan)); err != nil {
		return err
	}
	_, err := b.loadgen(b.plan, b.conc, d, 0)
	return err
}

// segmentLen is the target length of the load between two host probes. The
// end-to-end figures are medians over segments, so a burst of interference
// moves one segment, not the result.
const segmentLen = 3 * time.Second

// drive runs the workload's measured load for d: segments of load, each
// after a host probe (restart probes before every recovery instead).
func (b *bench) drive(d time.Duration) (*phase, error) {
	p := &phase{t: newTally()}
	m0, c0 := readMem(), commitStats(b.env.obs)
	b.tr.cur.Store(p.t)
	var err error
	if b.cfg.Workload == "restart" {
		err = b.recoverLoop(p, d)
	} else {
		n := max(1, int((d+segmentLen/2)/segmentLen))
		for i := 0; i < n && err == nil; i++ {
			var speed float64
			if speed, err = b.probeHost(); err != nil {
				break
			}
			p.speeds = append(p.speeds, speed)
			t0 := time.Now()
			err = b.load(d / time.Duration(n))
			dur := time.Since(t0)
			p.t.endSegment(dur)
			p.wall += dur
		}
	}
	b.tr.cur.Store(nil)
	p.mem = diffMem(m0, readMem())
	p.commits = c0.to(commitStats(b.env.obs))
	if err != nil {
		return nil, err
	}
	if b.cfg.Workload == "write_churn" && p.t.acked == 0 {
		b.tr.attempted.Add(1)
		b.tr.fail("write_churn: no mutation acknowledged")
	}
	return p, nil
}

// load runs one segment of read_cold or write_churn load for d.
func (b *bench) load(d time.Duration) error {
	if b.cfg.Workload == "read_cold" {
		_, err := b.loadgen(b.plan, b.conc, d, 0)
		return err
	}
	// write_churn: one writer and one reader, each a closed loop of its own.
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, werr = b.loadgen(b.writes, 1, d, 0)
	}()
	_, err := b.loadgen(b.plan, 1, d, 0)
	wg.Wait()
	if err == nil {
		err = werr
	}
	return err
}

// tailBatches and docEvery size the restart workload's WAL tail: six
// durable ApplyBatch groups of 4 add/remove pairs, plus one document insert
// (Algorithm 3) after every third group — 50 records, replayed one record at
// a time on every recovery.
const (
	tailBatches = 6
	docEvery    = 3
)

// prepareTail writes the restart workload's fixed WAL tail through
// ApplyBatch, records the expected counts and state fingerprint, and closes
// the store without a checkpoint, so every recovery replays the same tail.
func (b *bench) prepareTail() error {
	e := b.env
	for i := 0; i < tailBatches; i++ {
		ms := b.batches[i%len(b.batches)]
		if (i+1)%docEvery == 0 {
			ms = append(append([]dkindex.Mutation(nil), ms...), dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: []byte(tailDoc)})
		}
		acks, err := e.idx.ApplyBatch(ms)
		if err != nil {
			return err
		}
		for _, a := range acks {
			if a.Err != nil {
				return fmt.Errorf("restart tail: %w", a.Err)
			}
		}
		b.tailRecords += len(ms)
	}
	exp, err := expectedCounts(e.idx.Graph(), b.plan)
	if err != nil {
		return err
	}
	b.tr.expect.Store(&exp)
	if b.fingerprint, err = fingerprint(e.idx); err != nil {
		return err
	}
	e.idx.StopBatching()
	if err := e.store.Close(); err != nil {
		return err
	}
	e.idx, e.store = nil, nil
	return nil
}

func fingerprint(idx *dkindex.Index) ([32]byte, error) {
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// recoverLoop is the restart workload: probe the host, recover the store,
// boot the server on the recovered index, answer the whole plan over HTTP;
// repeat until the recoveries have taken d.
func (b *bench) recoverLoop(p *phase, d time.Duration) error {
	e := b.env
	for len(p.recoveries) == 0 || p.wall < d {
		speed, err := b.probeHost()
		if err != nil {
			return err
		}
		p.speeds = append(p.speeds, speed)
		begin := time.Now()
		if e.store != nil {
			e.idx.StopBatching()
			if err := e.store.Close(); err != nil {
				return err
			}
			e.idx, e.store = nil, nil
		}
		t0 := time.Now()
		rep, err := b.reopen()
		if err != nil {
			return err
		}
		b.rec.timed("server.boot", "recover", func() {
			e.srv.Store(server.NewBackend(tracedIndex{e.idx, b.rec}))
		})
		var lerr error
		first := p.t.count()
		pass := b.rec.timed("plan.pass", "recover", func() {
			_, lerr = b.loadgen(b.plan, b.conc, time.Minute, len(b.plan))
		})
		if lerr != nil {
			return lerr
		}
		p.recoveries = append(p.recoveries, time.Since(t0))
		p.wall += time.Since(begin)
		p.passes = append(p.passes, float64(len(b.plan))/pass.Seconds())
		p.passP99 = append(p.passP99, quantile(sortedCopy(p.t.readsFrom(first)), 0.99))
		p.passWall += pass
		b.tr.attempted.Add(1)
		if fp, err := fingerprint(e.idx); err != nil || fp != b.fingerprint || rep.Replayed != b.tailRecords {
			b.tr.fail("recovery %d: replayed %d of %d records, fingerprint match %v (%v)",
				len(p.recoveries), rep.Replayed, b.tailRecords, fp == b.fingerprint, err)
		}
	}
	return nil
}

// reopen recovers the env's store directory and makes the recovered index
// live (observed, group commit armed). The server keeps serving the previous
// backend until the caller swaps it.
func (b *bench) reopen() (*dkindex.RecoveryReport, error) {
	e := b.env
	var st *dkindex.Store
	var rep *dkindex.RecoveryReport
	var err error
	b.rec.timed("store.open", "recover", func() {
		st, rep, err = dkindex.OpenStore(e.dir, &dkindex.StoreOptions{Observer: e.obs})
	})
	if err != nil {
		return nil, err
	}
	e.store, e.idx = st, st.Index()
	e.idx.Observe(e.obs)
	if b.cfg.Workload == "read_cold" {
		e.idx.SetResultCache(0)
	}
	if err := b.arm(e.idx); err != nil {
		return nil, err
	}
	return rep, nil
}

// finalChecks runs right after the measured load: every plan query still answers its
// expected count on the live index (write pairs cancel, so churn must leave
// them unchanged), and every acknowledged mutation is durable.
func (b *bench) finalChecks() {
	idx := b.env.idx
	exp := *b.tr.expect.Load()
	seen := make(map[string]bool)
	for _, op := range b.plan {
		k := planKey(op)
		if seen[k] {
			continue
		}
		seen[k] = true
		b.tr.attempted.Add(1)
		res, err := idx.Run(dkindex.Request{Kind: dkindex.Kind(op.Kind), Text: op.Query, Limit: -1})
		if err != nil || res.Total != exp[k] {
			b.tr.fail("final %s %q: count %d, want %d (%v)", op.Kind, op.Query, res.Total, exp[k], err)
		}
	}
	b.tr.attempted.Add(1)
	if w, l := idx.Watermark(), idx.LastSeq(); w != l {
		b.tr.fail("watermark %d != last seq %d", w, l)
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
