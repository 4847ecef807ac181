GO ?= go

# Benchmark knobs: DK_BENCH_SCALE sets the XMark fraction loaded by
# bench_test.go; BENCHTIME feeds -benchtime; BENCHCOUNT feeds -count (bench2
# uses several repetitions so min/median survive machine noise).
DK_BENCH_SCALE ?= 1.0
BENCHTIME ?= 2s
BENCHCOUNT ?= 1

.PHONY: all build test race vet fmt-check bench bench2 bench3 bench5 bench6 bench7 bench8 bench9 bench10 bench-baseline bench-guard profile-build stress fuzz-smoke serve-smoke shard-smoke ci clean

all: build test

# ci chains every hygiene gate: compile, vet, formatting, the race-enabled
# test suite (which includes the replica flaky-link convergence test in its
# short form), short fuzz runs of the decoders, the stress battery (snapshot
# races, crash-point sweeps — store and replica catch-up — replication under
# faults, and the sharded engine's reader/writer stress) under the race
# detector, a short end-to-end serving run through the load harness, the
# shard bit-identity smoke (merged scatter-gather results must fingerprint
# identically to the monolithic index), and the benchmark regression guard
# against the recorded baseline.
ci: build vet fmt-check race fuzz-smoke stress serve-smoke shard-smoke bench-guard

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress runs the snapshot-isolation stress test, the group-commit pipeline
# stress test, the crash-point sweep, the construction audit, and the
# replication pair under -race: the first hammers a torn publish, the second
# cycles concurrent ApplyBatch writers against snapshot readers and watermark
# pollers, the third injects a crash at every I/O operation of a mutation
# scenario (including inside a WAL group frame) and proves recovery lands on
# exactly the acknowledged state, the fourth proves the parallel
# counting-sort refinement is block-identical to the preserved reference
# implementation on every experiment dataset, the fifth drives a replica
# over a flaky link to bit-identical convergence and sweeps a primary crash
# at every I/O point of a replica catch-up (the full grid; `go test -short`
# runs a strided subset), and the sixth cycles concurrent merged readers
# against a writer mutating a sharded engine (document adds, promotions,
# shard-split batches) checking every merged result stays sorted and
# duplicate-free. TestCloneIsolationUnderReaders mutates copy-on-write
# clones of a snapshot that readers are querying and checks the snapshot's
# fingerprint never moves. Every test runs at GOMAXPROCS 1, 2 and 4, so
# races and scheduling bugs that hide on one core count cannot hide on all
# of them.
stress:
	$(GO) test -race -cpu 1,2,4 -count 2 -run TestSnapshotStressConcurrent .
	$(GO) test -race -cpu 1,2,4 -count 2 -run TestApplyBatchStressConcurrent .
	$(GO) test -race -cpu 1,2,4 -count 1 -run TestCloneIsolationUnderReaders .
	$(GO) test -race -cpu 1,2,4 -count 1 -run TestStoreCrashPointSweep .
	$(GO) test -race -cpu 1,2,4 -count 1 -run TestBuildPartitionIdentity ./internal/experiments/
	$(GO) test -race -cpu 1,2,4 -count 1 -run 'TestReplicaConvergesUnderFaults|TestReplicaCatchUpCrashSweep' ./internal/replica/
	$(GO) test -race -cpu 1,2,4 -count 1 -run TestShardConcurrentReadersWriters ./internal/shard/

# fuzz-smoke gives each untrusted-input decoder a short fuzzing burst: the
# checkpoint codec, the write-ahead log replayer, the XML loader, the
# succinct-set codec, and the path-expression parser (whose fuzz target also
# holds the set-table automaton kernels to their []bool reference
# evaluators). Long exploratory runs stay manual (go test -fuzz=...
# -fuzztime=5m).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLoadDK -fuzztime 5s ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 5s ./internal/xmlgraph
	$(GO) test -run '^$$' -fuzz FuzzDecodeBlock -fuzztime 5s ./internal/nodeset
	$(GO) test -run '^$$' -fuzz FuzzFromSortedAlgebra -fuzztime 5s ./internal/nodeset
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/rpe

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench runs the query-throughput benchmark and records both the raw text
# (BENCH_1.txt) and a parsed JSON report (BENCH_1.json, via dkbench
# -benchjson).
bench:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench BenchmarkQueryThroughput -benchmem -benchtime $(BENCHTIME) . \
		| tee BENCH_1.txt
	$(GO) run ./cmd/dkbench -benchjson < BENCH_1.txt > BENCH_1.json

# bench2 quantifies observability overhead: the plain and fully instrumented
# query-throughput benchmarks side by side (BENCH_2.txt/BENCH_2.json).
bench2:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkQueryThroughput(Instrumented)?$$' \
		-benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . \
		| tee BENCH_2.txt
	$(GO) run ./cmd/dkbench -benchjson < BENCH_2.txt > BENCH_2.json

# bench3 records the snapshot-serving pair: the lock-free Run hot path driven
# serially and from all CPUs (BENCH_3.txt/BENCH_3.json). On multicore hardware
# the parallel row's ns/op should be a per-core fraction of the serial row's.
bench3:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkSnapshotQuery(Serial|Parallel)$$' \
		-benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . \
		| tee BENCH_3.txt
	$(GO) run ./cmd/dkbench -benchjson < BENCH_3.txt > BENCH_3.json

# bench5 records construction cost for the full dataset family: 1-index,
# A(2), and load-tuned D(k) builds on XMark, NASA, and DBLP
# (BENCH_5.txt/BENCH_5.json).
bench5:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkBuild(XMark|Nasa|Dblp)' \
		-benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . \
		| tee BENCH_5.txt
	$(GO) run ./cmd/dkbench -benchjson < BENCH_5.txt > BENCH_5.json

# bench6 records the succinct-set memory experiment: query throughput plus
# the extent/posting footprint (resident vs raw bytes, compression ratio,
# bytes per node) on XMark, NASA, and DBLP (BENCH_6.txt/BENCH_6.json).
bench6:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkQueryThroughput$$|BenchmarkMemFootprint(XMark|Nasa|Dblp)' \
		-benchmem -benchtime $(BENCHTIME) . \
		| tee BENCH_6.txt
	$(GO) run ./cmd/dkbench -benchjson < BENCH_6.txt > BENCH_6.json

# bench7 records end-to-end serving latency (BENCH_7.json): the real HTTP
# server driven by the loadgen harness, closed and open loop, read-only and
# under concurrent edge mutations, with p50/p99/p999 per scenario and per
# query kind. The request plan is recorded alongside as BENCH_7_plan.jsonl so
# the exact sequence replays later (dkbench -exp serve -serve-replay).
bench7:
	$(GO) run ./cmd/dkbench -exp serve -scale $(DK_BENCH_SCALE) \
		-serve-json BENCH_7.json -serve-record BENCH_7_plan.jsonl \
		| tee BENCH_7.txt

# bench8 records write-pipeline throughput (BENCH_8.json): a durable store on
# a real filesystem driven by concurrent writers, fsync-per-operation vs
# group-committed Apply, reporting mutations/sec, realized batch size and the
# speedup. The acceptance bar for the group-commit pipeline is a >=5x speedup
# with a realized batch of >=8 mutations per commit.
bench8:
	$(GO) run ./cmd/dkbench -exp write -scale $(DK_BENCH_SCALE) \
		-write-json BENCH_8.json | tee BENCH_8.txt

# bench9 records replicated serving (BENCH_9.json): a durable primary plus
# one WAL-shipped streaming read replica, both under the bench8-style write
# workload — read throughput of primary+replica vs the primary alone, and
# the replica's lag quantiles (in sequence numbers) with the drain time once
# writes stop.
bench9:
	$(GO) run ./cmd/dkbench -exp repl -scale $(DK_BENCH_SCALE) \
		-repl-json BENCH_9.json | tee BENCH_9.txt

# bench10 records sharded scatter-gather serving (BENCH_10.json): merged
# query throughput (result caches off) and sustained durable write throughput
# at 1, 2, 4 and 8 shards against the monolithic index on the same
# multi-document XMark corpus, preceded by the bit-identity audit on XMark,
# NASA and DBLP. Speedups depend on real cores: on a 1-CPU container the
# fan-out is pure overhead and every sharded row reads below 1.0x.
bench10:
	$(GO) run ./cmd/dkbench -exp shard -shard-json BENCH_10.json | tee BENCH_10.txt

# shard-smoke is the ci-sized shard audit: a small multi-document XMark
# corpus served monolithically and through a 4-shard engine must produce
# identical result fingerprints across all three query languages.
shard-smoke:
	$(GO) run ./cmd/dkbench -exp shard-audit -shard-docs 4 -shard-doc-scale 0.02

# serve-smoke is the ci-sized bench7: a ~2 second end-to-end run on a small
# corpus proving the server, RED instrumentation, slow log, runtime telemetry
# and both load disciplines work together.
serve-smoke:
	$(GO) run ./cmd/dkbench -exp serve -scale 0.05 \
		-serve-dur 400ms -serve-warmup 100ms -serve-conc 4 -serve-rate 400

# bench-baseline records the regression-guard baseline: several short
# repetitions of the guarded benchmarks (query throughput, the regular path
# expression validation kernel, the parallel snapshot-serving path, the
# in-memory group-commit write pipeline, the copy-on-write snapshot clone
# every commit pays, and the sharded engine's scatter-gather read and
# shard-split write paths), parsed to JSON.
# bench-guard compares future runs against it per benchmark name on
# best-of-N ns/op.
GUARDED_BENCH = BenchmarkQueryThroughput$$|BenchmarkQueryRPE$$|BenchmarkSnapshotQueryParallel$$|BenchmarkApplyBatchPipeline$$|BenchmarkCloneXMark$$|BenchmarkShardQueryFanout$$|BenchmarkShardApplyBatch$$

bench-baseline:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench '$(GUARDED_BENCH)' -benchtime 1s -count 5 . ./internal/shard/ \
		| $(GO) run ./cmd/dkbench -benchjson > BENCH_BASELINE.json

# bench-guard fails when the fastest of five runs of a guarded benchmark
# regresses more than 10% against the recorded BENCH_BASELINE.json. Skips
# with a notice when no baseline has been recorded yet.
bench-guard:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench '$(GUARDED_BENCH)' -benchtime 1s -count 5 . ./internal/shard/ \
		| $(GO) run ./cmd/dkbench -benchguard BENCH_BASELINE.json

# profile-build captures CPU and heap profiles of the large-XMark 1-index
# construction (the heaviest refinement workload). Inspect with
# `go tool pprof build_cpu.prof` / `go tool pprof build_mem.prof`.
profile-build:
	DK_BENCH_SCALE=$(DK_BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkBuildXMark/1index' -benchtime $(BENCHTIME) \
		-cpuprofile build_cpu.prof -memprofile build_mem.prof .

clean:
	rm -f BENCH_1.txt BENCH_1.json BENCH_2.txt BENCH_2.json BENCH_3.txt BENCH_3.json
	rm -f BENCH_5.txt BENCH_5.json BENCH_6.txt BENCH_6.json build_cpu.prof build_mem.prof dkindex.test
	rm -f BENCH_7.txt BENCH_7.json BENCH_7_plan.jsonl BENCH_8.txt BENCH_8.json
	rm -f BENCH_9.txt BENCH_9.json BENCH_10.txt BENCH_10.json
