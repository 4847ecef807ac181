// Command perfbench is the repository benchmark. It boots the real
// internal/server handler on loopback over a store-backed dkindex.Index
// (XMark, scale 1 by default), drives it with internal/loadgen in closed
// loop, checks every answer, and prints the metrics BENCHMARK.json defines:
// end-to-end with -trace 0, per layer with -trace 1. The last line of
// standard output is one JSON object: {"correct","attempted","failed","metrics"}.
//
//	go -C perfbench run . -workload read_cold -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dkindex"
	"dkindex/internal/loadgen"
)

// workloadNames lists the workloads in BENCHMARK.json order. README.md
// says why there is no cache-hit read workload.
var workloadNames = []string{"read_cold", "write_churn", "restart"}

type config struct {
	Workload string
	Seed     int64
	// Measure is the measured time; a traced run splits it between an
	// untraced and a traced phase.
	Measure time.Duration
	Trace   bool
	WorkDir string
	// Scale is the XMark scale (1.0; the smoke test runs smaller).
	Scale float64
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int
	Log    io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if code, ok := probeChild(); ok {
		os.Exit(code)
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "read_cold", "read_cold|write_churn|restart, or all of them in turn")
		seed     = fs.Int64("seed", 1, "workload seed: plan order, write edges and restart tail")
		seconds  = fs.Float64("seconds", 30, "measured seconds")
		trace    = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		workdir  = fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for stores, spans and layer tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == names[0]
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	// With "all", each workload prints its own result line; the last line
	// is the last workload's.
	for _, w := range names {
		cfg := config{Workload: w, Seed: *seed, Measure: time.Duration(*seconds * float64(time.Second)),
			Trace: *trace == 1, WorkDir: *workdir, Scale: 1.0, Setups: 5, Log: stdout}
		out, err := run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// bench is one run: its set-up, load, checks and metrics.
type bench struct {
	cfg     config
	conc    int
	rec     *recorder
	tr      *checker
	client  *http.Client
	env     *env
	setups  []setupTimes
	heapMB  float64
	plan    []loadgen.Op
	batches [][]dkindex.Mutation
	writes  []loadgen.Op
	// restart: records in the fixed WAL tail and the state fingerprint
	// taken before the store closed.
	tailRecords int
	fingerprint [32]byte
	metrics     map[string]metric
}

func newBench(cfg config) *bench {
	rec := newRecorder()
	conc := 2
	if n := runtime.NumCPU(); n < conc {
		conc = n
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conc
	tr := &checker{base: t, rec: rec}
	empty := map[string]int{}
	tr.expect.Store(&empty)
	return &bench{cfg: cfg, conc: conc, rec: rec, tr: tr,
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, metrics: make(map[string]metric)}
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.cfg.Log, format+"\n", args...) }

func run(cfg config) (*output, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	b := newBench(cfg)
	defer b.close()
	b.logf("perfbench %s seed=%d measure=%v trace=%v %s", cfg.Workload, cfg.Seed, cfg.Measure, cfg.Trace, hostShape(cfg))
	if err := b.prepare(); err != nil {
		return nil, err
	}
	if cfg.Workload == "restart" {
		if err := b.prepareTail(); err != nil {
			return nil, err
		}
	}
	if err := b.warm(); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		p, err := b.drive(cfg.Measure)
		if err != nil {
			return nil, err
		}
		b.endToEnd(p)
		b.finalChecks()
	} else {
		plain, err := b.drive(cfg.Measure / 2)
		if err != nil {
			return nil, err
		}
		b.rec.on.Store(true)
		traced, err := b.drive(cfg.Measure / 2)
		if err != nil {
			return nil, err
		}
		b.finalChecks()
		pr, err := b.probe()
		b.rec.on.Store(false)
		if err != nil {
			return nil, err
		}
		if err := b.perLayer(plain, traced, pr); err != nil {
			return nil, err
		}
	}
	out := &output{Attempted: b.tr.attempted.Load(), Failed: b.tr.failed.Load(), Metrics: b.metrics}
	out.Correct = out.Failed == 0
	for _, p := range b.tr.problems {
		b.logf("FAILED: %s", p)
	}
	b.logf("fail_frac %.6f (%d failed of %d attempted)", float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	return out, nil
}

func (b *bench) close() {
	if b.env != nil {
		b.env.close()
	}
	if t, ok := b.tr.base.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// prepare runs set-up cfg.Setups times (keeping the last system), derives
// the read plan and its expected counts, and measures the live heap.
func (b *bench) prepare() error {
	for i := 0; i < b.cfg.Setups; i++ {
		if b.env != nil {
			b.env.close()
			b.env = nil
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		e, st, err := b.setup(i)
		if err != nil {
			if e != nil {
				e.close()
			}
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		b.env = e
		b.setups = append(b.setups, st)
	}
	e := b.env
	b.plan = buildServePlan(e.ds, e.idx)
	if len(b.plan) == 0 {
		return fmt.Errorf("empty read plan")
	}
	shufflePlan(b.plan, b.cfg.Seed)
	exp, err := expectedCounts(e.idx.Graph(), b.plan)
	if err != nil {
		return err
	}
	b.tr.expect.Store(&exp)
	edges, err := e.ds.RandomEdges(64, b.cfg.Seed)
	if err != nil {
		return err
	}
	b.batches = writeBatches(edges)
	if len(b.batches) == 0 {
		return fmt.Errorf("no write batches")
	}
	b.writes = mutatePlan(b.batches)
	b.heapMB = liveHeapMB()
	b.logf("dataset: %d nodes, %d edges, %d labels; plan %d ops (%d distinct); %d write batches of %d",
		e.ds.G.NumNodes(), e.ds.G.NumEdges(), e.ds.G.Labels().Len(), len(b.plan), len(exp), len(b.batches), writeBatchSize)
	return nil
}

// medianSetup is the median set-up wall time in seconds.
func (b *bench) medianSetup() float64 {
	ds := make([]time.Duration, len(b.setups))
	for i, s := range b.setups {
		ds[i] = s.total
	}
	return median(ds).Seconds()
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return time.Duration(quantile(s, 0.5))
}
