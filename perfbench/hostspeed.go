package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The reference host's speed drifts: the same code runs up to 30% faster or
// slower for minutes at a time, and every workload drifts with it. A 30 s
// run sits inside one such stretch, so no statistic over the run's own
// samples removes the drift. Each run therefore measures the host's speed
// beside its load, with a fixed reference computation, and scales its
// end-to-end times to the reference host's speed (README.md, "Host speed").

// refNominal is the reference computation's rate on the reference host, in
// units of work per second: the rate at which the host-speed ratio is 1.
const refNominal = 2400

// probeEnv marks a child process started to run the reference computation.
const probeEnv = "PERFBENCH_PROBE"

// probeWarm and probeMeasure split a probe's time: the child warms its heap
// and caches, then measures.
const (
	probeWarm    = 50 * time.Millisecond
	probeMeasure = 200 * time.Millisecond
)

// refRecord is what one unit of reference work encodes.
type refRecord struct {
	ID    int      `json:"id"`
	Name  string   `json:"name"`
	Tags  []string `json:"tags"`
	Score float64  `json:"score"`
}

var refSink atomic.Int64

// refWork is one unit of reference work: JSON-encode 300 records, update a
// map and sort its keys. Like the program's read path it allocates,
// encodes, hashes and sorts, and it uses the standard library only, so
// nothing a change to the program does can change its cost.
func refWork() {
	rs := make([]refRecord, 300)
	for i := range rs {
		rs[i] = refRecord{i, "n" + strconv.Itoa(i), []string{"a", "b"}, float64(i) * 1.5}
	}
	buf, _ := json.Marshal(rs) // the records always encode
	m := make(map[int]int)
	for i := 0; i < 2000; i++ {
		m[i*7919%5000] += i
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	refSink.Add(int64(len(buf) + keys[0]))
}

// runProbe is the child's side of a probe: it runs refWork on conc
// goroutines and prints the units of work done per second.
func runProbe(w io.Writer, conc int) int {
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	measureFrom := start.Add(probeWarm)
	end := measureFrom.Add(probeMeasure)
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Now(); now.Before(end); now = time.Now() {
				refWork()
				if !now.Before(measureFrom) {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Fprintln(w, float64(done.Load())/probeMeasure.Seconds())
	return 0
}

// probeHost measures the host's speed: the reference computation's rate in
// a child process, which shares no heap or garbage collector with the
// program, on as many goroutines as the load has connections. Load is
// paused while it runs.
func (b *bench) probeHost() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeEnv+"="+strconv.Itoa(b.conc))
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || rate <= 0 {
		return 0, fmt.Errorf("host probe: bad rate %q", out)
	}
	return rate, nil
}

// probeChild runs the probe and returns true when this process was started
// as a probe child.
func probeChild() (int, bool) {
	v := os.Getenv(probeEnv)
	if v == "" {
		return 0, false
	}
	conc, err := strconv.Atoi(v)
	if err != nil || conc < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad %s=%q\n", probeEnv, v)
		return 2, true
	}
	return runProbe(os.Stdout, conc), true
}
