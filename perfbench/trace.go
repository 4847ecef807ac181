package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dkindex"
)

// span is one timed call the benchmark made into a layer. Spans of one HTTP
// request share Req (the X-Request-ID the client stamped); Parent names the
// enclosing span of the same request.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    string `json:"req"`
	// Op is the query ("kind\x00text") a dkindex.run span answered; Detail
	// carries "hit"/"miss" there and the URL path on server.handler spans.
	Op     string `json:"op,omitempty"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"startNS"`
	End    int64  `json:"endNS"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory while it is on; they are written out when
// the run ends. While off, start returns the zero time and finish drops the
// span, so the untraced phases pay one atomic load per call.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) start() time.Time {
	if !r.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (r *recorder) finish(s span, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	end := time.Now()
	s.Start, s.End = t0.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records f as a span (when on) and returns its wall time either way.
func (r *recorder) timed(name, parent string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	if r.on.Load() {
		r.mu.Lock()
		s := t0.Sub(r.epoch).Nanoseconds()
		r.spans = append(r.spans, span{Name: name, Parent: parent, Req: "bench", Start: s, End: s + d.Nanoseconds()})
		r.mu.Unlock()
	}
	return d
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// linkCommits gives every dkindex.apply_batch span the request id of the
// /v1/mutate handler span that contains it: ApplyBatch receives no request
// id, but the server calls it inside the handler, so containment is exact.
func linkCommits(spans []span) {
	var handlers []span
	for _, s := range spans {
		if s.Name == "server.handler" && s.Detail == "/v1/mutate" {
			handlers = append(handlers, s)
		}
	}
	sort.Slice(handlers, func(i, j int) bool { return handlers[i].Start < handlers[j].Start })
	for i := range spans {
		s := &spans[i]
		if s.Name != "dkindex.apply_batch" || s.Req != "" {
			continue
		}
		j := sort.Search(len(handlers), func(j int) bool { return handlers[j].Start > s.Start }) - 1
		if j >= 0 && handlers[j].End >= s.End {
			s.Req = handlers[j].Req
		}
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHandler times the server's ServeHTTP in-process.
func traceHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := rec.start()
		h.ServeHTTP(w, r)
		rec.finish(span{Name: "server.handler", Parent: "client.request",
			Req: r.Header.Get("X-Request-ID"), Detail: r.URL.Path}, t0)
	})
}

// tracedIndex is the server backend: the real index, with the two calls the
// measured routes make into the dkindex facade timed from outside.
type tracedIndex struct {
	*dkindex.Index
	rec *recorder
}

func (t tracedIndex) Run(req dkindex.Request) (dkindex.Result, error) {
	t0 := t.rec.start()
	res, err := t.Index.Run(req)
	hit := "miss"
	if res.CacheHit {
		hit = "hit"
	}
	t.rec.finish(span{Name: "dkindex.run", Parent: "server.handler", Req: req.Origin,
		Op: string(req.Kind) + "\x00" + req.Text, Detail: hit}, t0)
	return res, err
}

func (t tracedIndex) ApplyBatch(ms []dkindex.Mutation) ([]dkindex.Ack, error) {
	t0 := t.rec.start()
	acks, err := t.Index.ApplyBatch(ms)
	t.rec.finish(span{Name: "dkindex.apply_batch", Parent: "server.handler"}, t0)
	return acks, err
}

// tally collects the client-observed latencies of one measured phase, split
// into the segments of load between host probes.
type tally struct {
	mu             sync.Mutex
	reads, commits []time.Duration
	segs           []segment
	acked          int
}

// segment is one stretch of load: it ends at reads[readEnd] and
// commits[commitEnd], and its load ran for dur.
type segment struct {
	readEnd, commitEnd int
	dur                time.Duration
}

func newTally() *tally { return &tally{} }

// count is the number of reads tallied so far.
func (t *tally) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.reads)
}

// readsFrom copies the read latencies tallied from index i on.
func (t *tally) readsFrom(i int) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.reads[i:]...)
}

func (t *tally) add(mutate bool, d time.Duration, acked int) {
	t.mu.Lock()
	if mutate {
		t.commits = append(t.commits, d)
		t.acked += acked
	} else {
		t.reads = append(t.reads, d)
	}
	t.mu.Unlock()
}

// endSegment closes the segment whose load just ran for dur; every answer
// of that load has been tallied.
func (t *tally) endSegment(dur time.Duration) {
	t.mu.Lock()
	t.segs = append(t.segs, segment{len(t.reads), len(t.commits), dur})
	t.mu.Unlock()
}

// checker is the client transport loadgen drives: it stamps a request id,
// times the full exchange (body included), and checks every answer — a
// query's count against the reference evaluators, a mutation's acks for
// errors. Each failed or wrong op counts against fail_frac.
type checker struct {
	base   http.RoundTripper
	rec    *recorder
	expect atomic.Pointer[map[string]int]
	cur    atomic.Pointer[tally]
	seq    atomic.Uint64

	attempted, failed atomic.Uint64
	mu                sync.Mutex
	problems          []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *checker) RoundTrip(req *http.Request) (*http.Response, error) {
	id := "pb-" + strconv.FormatUint(c.seq.Add(1), 10)
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-ID", id)
	path := req.URL.Path
	measured := path == "/v1/query" || path == "/v1/mutate"
	if measured {
		c.attempted.Add(1)
	}
	t0 := c.rec.start()
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		if measured {
			c.fail("%s: %v", path, err)
		}
		return nil, err
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	c.rec.finish(span{Name: "client.request", Req: id, Detail: path}, t0)
	if err != nil {
		bodyPool.Put(buf)
		if measured {
			c.fail("%s: reading body: %v", path, err)
		}
		return nil, err
	}
	body := buf.Bytes()
	resp.Body = &pooledBody{Reader: bytes.NewReader(body), buf: buf}
	if !measured {
		return resp, nil
	}
	acked, ok := 0, resp.StatusCode == http.StatusOK
	switch {
	case !ok:
		c.fail("%s?%s: status %d", path, req.URL.RawQuery, resp.StatusCode)
	case path == "/v1/mutate":
		acked, ok = c.checkAcks(body)
	default:
		ok = c.checkCount(req.URL.RawQuery, body)
	}
	if t := c.cur.Load(); t != nil && ok {
		t.add(path == "/v1/mutate", d, acked)
	}
	return resp, nil
}

// bodyPool recycles response buffers: the client shares the process (and
// its garbage collector) with the server it measures, so it should allocate
// as little as it can.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// pooledBody hands its buffer back to bodyPool on Close; loadgen drains and
// closes every body it receives.
type pooledBody struct {
	*bytes.Reader
	buf  *bytes.Buffer
	once sync.Once
}

func (p *pooledBody) Close() error {
	p.once.Do(func() { bodyPool.Put(p.buf) })
	return nil
}

// checkCount compares a query response's "count" with the expected total.
func (c *checker) checkCount(rawQuery string, body []byte) bool {
	want, known := (*c.expect.Load())[rawQuery]
	got, err := countOf(body)
	switch {
	case !known:
		c.fail("query %s: no expected count", rawQuery)
	case err != nil:
		c.fail("query %s: %v", rawQuery, err)
	case got != want:
		c.fail("query %s: count %d, want %d", rawQuery, got, want)
	default:
		return true
	}
	return false
}

// countOf extracts the top-level "count" of a query response without
// decoding its (up to 1000-entry) result list.
func countOf(body []byte) (int, error) {
	const key = `"count":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no count in response")
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}

// checkAcks requires every acknowledgement of a sync /v1/mutate batch to be
// clean and durable (sequence at or below the watermark).
func (c *checker) checkAcks(body []byte) (int, bool) {
	var env struct {
		Acks []struct {
			Seq       uint64 `json:"seq"`
			Watermark uint64 `json:"watermark"`
			Error     string `json:"error"`
		} `json:"acks"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		c.fail("mutate: %v", err)
		return 0, false
	}
	for _, a := range env.Acks {
		if a.Error != "" || a.Seq == 0 || a.Seq > a.Watermark {
			c.fail("mutate: ack seq %d watermark %d error %q", a.Seq, a.Watermark, a.Error)
			return 0, false
		}
	}
	if len(env.Acks) == 0 {
		c.fail("mutate: no acks")
		return 0, false
	}
	return len(env.Acks), true
}
