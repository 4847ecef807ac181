package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// quantile interpolates the q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func meanOf(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

func medianF(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// segmented returns the medians over a phase's segments of the completion
// rate (per answer, times per) and of the p50 and p99 latency in ms. end
// gives each segment's end index into lat.
func segmented(lat []time.Duration, segs []segment, end func(segment) int, per float64) (rate, p50, p99 float64) {
	rates, p50s, p99s := make([]float64, len(segs)), make([]float64, len(segs)), make([]float64, len(segs))
	from := 0
	for i, sg := range segs {
		s := sortedCopy(lat[from:end(sg)])
		from = end(sg)
		rates[i] = per * float64(len(s)) / sg.dur.Seconds()
		p50s[i], p99s[i] = quantile(s, 0.5)/1e6, quantile(s, 0.99)/1e6
	}
	return medianF(rates), medianF(p50s), medianF(p99s)
}

func readEnd(s segment) int   { return s.readEnd }
func commitEnd(s segment) int { return s.commitEnd }

// hostRatio is the host's speed during a phase relative to the reference
// host: the median host probe over refNominal.
func hostRatio(speeds []float64) float64 { return medianF(speeds) / refNominal }

// endToEnd sets the metrics BENCHMARK.json bounds, from an untraced phase.
// op is the workload's defining operation: a read on read_cold, a
// sync /v1/mutate commit on write_churn, a recovery on restart. Rates and
// times, set-up time included, are scaled to the reference host's speed.
func (b *bench) endToEnd(p *phase) {
	t := p.t
	qps, p50, p99 := segmented(t.reads, t.segs, readEnd, 1)
	opRate, opP50 := qps, p50
	ratio := hostRatio(p.speeds)
	b.logf("end-to-end (%s): %d reads, %d commits, %d recoveries in %d segments; host speed ratio %.4f (median of %d probes)",
		b.cfg.Workload, len(t.reads), len(t.commits), len(p.recoveries), len(t.segs), ratio, len(p.speeds))
	tw := tabwriter.NewWriter(b.cfg.Log, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  metric\tas measured\tat reference speed\tunit\n")
	row := func(name string, v, scaled float64, unit string) {
		fmt.Fprintf(tw, "  %s\t%.4f\t%.4f\t%s\n", name, v, scaled, unit)
	}
	switch b.cfg.Workload {
	case "write_churn":
		var commitP99 float64
		opRate, opP50, commitP99 = segmented(t.commits, t.segs, commitEnd, float64(writeBatchSize))
		row("write_mps", opRate, opRate/ratio, "1/s")
		row("commit_p50_ms", opP50, opP50*ratio, "ms")
		row("commit_p99_ms", commitP99, commitP99*ratio, "ms")
	case "restart":
		// Reads come in one plan pass per recovery: throughput and p99 are
		// medians over passes (a pass's p99 rests on its few slowest reads,
		// which a GC of the replay's garbage may or may not hit), p50 pools
		// every read.
		reads := sortedCopy(t.reads)
		qps, p50, p99 = medianF(p.passes), quantile(reads, 0.5)/1e6, medianF(p.passP99)/1e6
		opP50 = float64(median(p.recoveries)) / 1e6
		opRate = 1e3 / opP50
		row("recover_s", opP50/1e3, opP50/1e3*ratio, "s")
	}
	var setups []string
	for _, st := range b.setups {
		setups = append(setups, fmt.Sprintf("%.3f", st.total.Seconds()))
	}
	b.logf("set-ups (s): %s", strings.Join(setups, " "))
	b.set("setup_s", b.medianSetup()*ratio, "s")
	b.set("heap_mb", b.heapMB, "MB")
	row("setup_s", b.medianSetup(), b.medianSetup()*ratio, "s")
	row("heap_mb", b.heapMB, b.heapMB, "MB")
	for _, m := range []struct {
		name     string
		v        float64
		unit     string
		duration bool
	}{
		{"read_qps", qps, "1/s", false},
		{"read_p50_ms", p50, "ms", true},
		{"read_p99_ms", p99, "ms", true},
		{"op_per_s", opRate, "1/s", false},
		{"op_p50_ms", opP50, "ms", true},
	} {
		scaled := m.v / ratio
		if m.duration {
			scaled = m.v * ratio
		}
		b.set(m.name, scaled, m.unit)
		row(m.name, m.v, scaled, m.unit)
	}
	tw.Flush()
}

// layerRow is one line of a layer table: a layer's mean self time per
// operation and how many spans it was measured over.
type layerRow struct {
	name    string
	selfUS  float64
	samples int
}

// perLayer sets the per-layer metrics and prints the layer tables. plain is
// the untraced phase, traced the traced one, pr the probes.
func (b *bench) perLayer(plain, traced *phase, pr *probes) error {
	spans := b.rec.snapshot()
	linkCommits(spans)
	byReq := make(map[string]map[string]span)
	for _, s := range spans {
		if s.Req == "" || s.Req == "bench" {
			continue
		}
		m := byReq[s.Req]
		if m == nil {
			m = make(map[string]span, 3)
			byReq[s.Req] = m
		}
		m[s.Name] = s
	}

	// Read path: client -> server handler -> dkindex.Run -> parse + eval.
	var n, hits int
	var client, handler, run, wire, srvSelf, dkSelf, parse, evalT float64
	for _, m := range byReq {
		c, ok1 := m["client.request"]
		h, ok2 := m["server.handler"]
		r, ok3 := m["dkindex.run"]
		if !ok1 || !ok2 || !ok3 || c.Detail != "/v1/query" {
			continue
		}
		n++
		p := us(pr.parse[r.Op])
		e := 0.0
		if r.Detail == "hit" {
			hits++
		} else {
			e = us(pr.eval[r.Op])
		}
		client += us(c.dur())
		handler += us(h.dur())
		run += us(r.dur())
		wire += us(c.dur() - h.dur())
		srvSelf += us(h.dur() - r.dur())
		dkSelf += us(r.dur()) - p - e
		parse += p
		evalT += e
	}
	if n == 0 {
		return fmt.Errorf("traced run recorded no complete read requests")
	}
	fn := float64(n)
	untraced := meanOf(plain.t.reads) / 1e3
	tracedMean := meanOf(traced.t.reads) / 1e3
	readRows := []layerRow{
		{"loadgen.wire", wire / fn, n},
		{"server.self", srvSelf / fn, n},
		{"dkindex.self", dkSelf / fn, n},
		{"eval.parse", parse / fn, n},
		{"eval.match+validate", evalT / fn, n - hits},
	}
	unattributed := untraced - client/fn

	b.set("loadgen.wire_us", wire/fn, "us")
	b.set("server.handler_us", handler/fn, "us")
	b.set("server.self_us", srvSelf/fn, "us")
	b.set("dkindex.run_us", run/fn, "us")
	b.set("dkindex.self_us", dkSelf/fn, "us")
	b.set("trace.unattributed_us", unattributed, "us")
	b.set("trace.overhead_pct", 100*(tracedMean-untraced)/untraced, "%")
	b.set("trace.read_requests", fn, "count")
	b.set("qcache.hit_ratio", float64(hits)/fn, "ratio")
	b.set("qcache.lookups", fn, "count")
	b.set("qcache.entries", float64(b.env.idx.ResultCacheLen()), "count")

	b.set("eval.parse_us", pr.parseUS, "us")
	for _, k := range []string{"path", "rpe", "twig"} {
		b.set("eval."+k+"_us", pr.evalUS[k], "us")
	}
	b.set("eval.index_nodes_visited", pr.visited, "count")
	b.set("eval.data_nodes_validated", pr.validated, "count")
	yield := 0.0
	if pr.validatedSum > 0 {
		yield = pr.resultSum / pr.validatedSum
	}
	b.set("eval.validation_yield", yield, "ratio")
	b.set("nodeset.set_bytes", pr.setBytes, "B")

	// Commit path: the workload's own commits on write_churn, the probe's
	// elsewhere.
	cd, applyMS, commitClient, commitSamples := pr.commits, pr.applyMS, 0.0, 0
	var commitHandler float64
	if b.cfg.Workload == "write_churn" {
		cd = traced.commits
		var apply float64
		for _, m := range byReq {
			a, ok1 := m["dkindex.apply_batch"]
			c, ok2 := m["client.request"]
			if !ok1 || !ok2 {
				continue
			}
			apply += ms(a.dur())
			commitClient += ms(c.dur())
			commitHandler += ms(m["server.handler"].dur())
			commitSamples++
		}
		if commitSamples == 0 {
			return fmt.Errorf("traced write_churn recorded no commits")
		}
		applyMS = apply / float64(commitSamples)
		commitClient /= float64(commitSamples)
		commitHandler /= float64(commitSamples)
	}
	if cd.commits == 0 {
		return fmt.Errorf("no group commits observed")
	}
	flushMS := 1e3 * cd.flush / float64(cd.commits)
	b.set("batcher.commits", float64(cd.commits), "count")
	b.set("batcher.batch_size", cd.mutations/float64(cd.commits), "count")
	b.set("batcher.commit_ms", flushMS, "ms")
	b.set("batcher.queue_ms", applyMS-flushMS, "ms")
	b.set("core.clone_ms", pr.cloneMS, "ms")
	b.set("core.clone_allocs", pr.cloneAllocs, "count")
	b.set("core.clone_detached_ms", pr.cloneDetachedMS, "ms")
	b.set("core.clone_share_pct", 100*pr.cloneMS/flushMS, "%")
	b.set("core.edge_apply_us", pr.edgeUS, "us")
	b.set("core.doc_apply_ms", pr.docMS, "ms")
	b.set("wal.append_ms", pr.walAppendMS, "ms")
	b.set("wal.bytes_per_mut", pr.walBytesPerMut, "B")

	b.set("codec.decode_s", pr.decodeS, "s")
	b.set("wal.replay_decode_s", pr.replayDecodeS, "s")
	b.set("store.open_s", pr.openS, "s")
	b.set("store.replay_apply_s", pr.openS-pr.decodeS-pr.replayDecodeS, "s")

	var xmark, build, create time.Duration
	for _, s := range b.setups {
		xmark, build, create = xmark+s.xmark, build+s.build, create+s.create
	}
	ns := float64(len(b.setups))
	b.set("datagen.xmark_s", xmark.Seconds()/ns, "s")
	b.set("core.build_s", build.Seconds()/ns, "s")
	b.set("partition.rounds", float64(b.setups[len(b.setups)-1].rounds), "count")
	b.set("store.create_s", create.Seconds()/ns, "s")

	b.set("host.speed_ratio", hostRatio(append(append([]float64(nil), plain.speeds...), traced.speeds...)), "ratio")

	secs := traced.wall.Seconds()
	b.set("runtime.gc_cycles_per_s", float64(traced.mem.gcs)/secs, "1/s")
	b.set("runtime.alloc_mb_per_s", float64(traced.mem.alloc)/(1<<20)/secs, "MB/s")
	b.set("runtime.gc_pause_ms", gcPauseMS(traced.mem), "ms")

	// Layer tables, printed and written beside the spans.
	var sb strings.Builder
	fmt.Fprintf(&sb, "layer table: %s seed %d, %s\n", b.cfg.Workload, b.cfg.Seed, hostShape(b.cfg))
	writeTable(&sb, "read path (mean per read request)", untraced, readRows, unattributed,
		fmt.Sprintf("qcache.hit_ratio %.4f = %d hits / %d lookups; eval.validation_yield %.4f = %.0f results / %.0f validated (plan-weighted, %d probe reps)",
			float64(hits)/fn, hits, n, yield, pr.resultSum, pr.validatedSum, probeReps))
	switch b.cfg.Workload {
	case "write_churn":
		untracedCommit := meanOf(plain.t.commits) / 1e6
		rows := []layerRow{
			{"loadgen.wire", 1e3 * (commitClient - commitHandler), commitSamples},
			{"server.self", 1e3 * (commitHandler - applyMS), commitSamples},
			{"batcher.queue", 1e3 * (applyMS - flushMS), commitSamples},
			{"core.clone (probe)", 1e3 * pr.cloneMS, probeReps},
			{"commit.apply+wal+publish", 1e3 * (flushMS - pr.cloneMS), int(cd.commits)},
		}
		writeTable(&sb, "commit path (mean per sync /v1/mutate)", 1e3*untracedCommit, rows, 1e3*(untracedCommit-commitClient),
			fmt.Sprintf("core.clone_share_pct %.1f = clone %.2f ms / commit %.2f ms (dk_batch_flush_duration mean over %d commits); batch size %.2f; wal.append_ms %.2f (probe, %d-record groups)",
				100*pr.cloneMS/flushMS, pr.cloneMS, flushMS, cd.commits, cd.mutations/float64(cd.commits), pr.walAppendMS, writeBatchSize))
	case "restart":
		var boot, pass float64
		var boots, passes int
		for _, s := range spans {
			switch {
			case s.Name == "server.boot" && s.Parent == "recover":
				boot += us(s.dur())
				boots++
			case s.Name == "plan.pass" && s.Parent == "recover":
				pass += us(s.dur())
				passes++
			}
		}
		untracedRecover := meanOf(plain.recoveries) / 1e3
		rows := []layerRow{
			{"codec.decode (probe)", 1e6 * pr.decodeS, probeReps},
			{"wal.replay_decode (probe)", 1e6 * pr.replayDecodeS, probeReps},
			{"store.replay_apply", 1e6 * (pr.openS - pr.decodeS - pr.replayDecodeS), pr.opens},
			{"server.boot", boot / float64(max(boots, 1)), boots},
			{"plan.pass", pass / float64(max(passes, 1)), passes},
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.selfUS
		}
		writeTable(&sb, "recovery (mean per OpenStore-to-plan-answered)", untracedRecover, rows, untracedRecover-sum,
			fmt.Sprintf("%d WAL records replayed per recovery, %d traced recoveries", b.tailRecords, pr.opens))
	}
	fmt.Fprintf(&sb, "runtime (traced phase): %.2f GC/s, %.1f MB/s allocated, %.3f ms mean GC pause\n",
		b.metrics["runtime.gc_cycles_per_s"].Value, b.metrics["runtime.alloc_mb_per_s"].Value, b.metrics["runtime.gc_pause_ms"].Value)
	fmt.Fprintf(&sb, "trace.overhead_pct %.2f = traced read mean %.1f us vs untraced %.1f us\n",
		b.metrics["trace.overhead_pct"].Value, tracedMean, untraced)
	io.WriteString(b.cfg.Log, sb.String())

	base := filepath.Join(b.cfg.WorkDir, fmt.Sprintf("%s-seed%d", b.cfg.Workload, b.cfg.Seed))
	if err := os.WriteFile(base+".layers.txt", []byte(sb.String()), 0o644); err != nil {
		return err
	}
	return writeSpans(base+".spans.jsonl", spans)
}

func writeTable(w io.Writer, title string, e2eUS float64, rows []layerRow, unattributedUS float64, note string) {
	fmt.Fprintf(w, "%s: untraced end-to-end %.1f us\n", title, e2eUS)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "  layer\tself_us\tshare_%%\tsamples\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "  %s\t%.1f\t%.1f\t%d\t\n", r.name, r.selfUS, 100*r.selfUS/e2eUS, r.samples)
	}
	fmt.Fprintf(tw, "  unattributed\t%.1f\t%.1f\t-\t\n", unattributedUS, 100*unattributedUS/e2eUS)
	tw.Flush()
	fmt.Fprintf(w, "  %s\n", note)
}

// hostShape records what a number needs to count: cores, GOMAXPROCS, Go
// version, CPU model, the store's filesystem, the seed and the fsync policy.
func hostShape(cfg config) string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q fs=%s seed=%d fsync=one-per-group-commit",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsType(cfg.WorkDir), cfg.Seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType is the type of the mount holding dir, from /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}
