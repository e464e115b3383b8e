GO ?= go

# The committed perf-trajectory record `make bench` writes; bump the suffix
# when a PR re-baselines the ladder.
BENCH_OUT ?= BENCH_15.json
# The previous record, used as the regression baseline for -within gates.
BENCH_BASE ?= BENCH_14.json
# Fixed iteration counts so runs are comparable across commits.
BENCH_TIME ?= 2000000x
# The wire ladder goes through real loopback sockets (µs per query, not ns),
# so it gets its own much smaller fixed count.
BENCH_NET_TIME ?= 50000x

.PHONY: all build test race chaos fuzz bench bench-all servebench verify examples fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/lru/ ./internal/engine/ ./internal/netproto/ ./internal/policy/ ./internal/obs/... ./internal/backing/ ./internal/resilience/ ./internal/cluster/

# chaos runs the failure-injection suite (backing blackouts, writer panics,
# overload shedding, cluster node death mid-replay — with and without gossip
# membership doing the eviction — and a link-cut partition healed by hinted
# handoff) under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/resilience/ ./internal/engine/ ./internal/cluster/

# fuzz runs every flat-core differential fuzz target in internal/lru for
# 10s each (go test -fuzz takes one target per run); `go test` alone only
# replays their seed corpora.
fuzz:
	for f in $$($(GO) test -list '^Fuzz.*VsGeneric$$' ./internal/lru/ | grep '^Fuzz'); do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s ./internal/lru/ || exit 1; \
	done

# bench runs the core benchmark ladder (flat vs generic arrays at every
# data-plane unit capacity plus the series connection, flat query paths,
# wait-free reader scaling under a live writer, engine shard scaling, tiered
# look-through hit/miss, tracing overhead) at a fixed iteration count,
# writes the machine-readable result to $(BENCH_OUT), and fails if a flat
# core is not faster than its generic oracle, if the batched flat walks miss
# the ≥1.4x bar (ns/op ≤ 0.714× generic) on unit2/unit4/series, if Query
# under a live writer degrades as readers are added (readers=8 vs readers=1
# — wait-free reads must not convoy; a lenient 1.1 bound absorbs scheduler
# noise on small hosts), if a hit path allocates (with or without tracing)
# or recording into an obs.Histogram from every core does,
# if tracing at the default sampling rate costs more than 5% of batch
# throughput (the TraceOverhead pair runs -count=10 and benchjson keeps each
# side's fastest run, so the tight ratio gate is noise-robust), or if a hit
# path slowed by more than the -within factor against the $(BENCH_BASE)
# baseline (a generous bound that absorbs CI noise while catching real
# regressions).
#
# The netproto leg runs the wire ladder (same loopback stack at batch sizes
# 1/8/32/64) plus the isolated decode benchmark, and gates on the tentpole
# claims: the batched path must be ≥2x the single-datagram baseline
# (batch=64 ≤ 0.5× batch=1 ns/op) and per-packet decode must not allocate.
#
# The cluster leg prices the router veneer: querying a local-owner key
# through a one-node cluster.Router must cost ≤1.3× the bare engine and not
# allocate (runs -count=5, benchjson keeps each side's fastest run) — and
# the same bar holds with the full self-healing stack armed (gossip
# membership, read-repair queue + sweeper, hinted handoff): path=selfheal.
# The multi-node paths on a 3-node, Replicas-2 ring — hot-key fan reads
# (path=fan), hot + cold updates (path=update) and Zipf queries from every
# core with hot-key tracking live (path=hot-parallel) — must not allocate.
bench:
	{ $(GO) test -run '^$$' -bench 'FlatVsGeneric|FlatQuery|FlatReaders|Engine|Tiered|Breaker|Shedder|HistogramObserve' -benchmem \
		-benchtime=$(BENCH_TIME) ./internal/lru/ ./internal/engine/ ./internal/resilience/ ./internal/obs/ \
	&& $(GO) test -run '^$$' -bench 'TraceOverhead' -benchmem \
		-benchtime=$(BENCH_TIME) -count=10 ./internal/engine/ \
	&& $(GO) test -run '^$$' -bench 'WireLadder|NetDecode' -benchmem \
		-benchtime=$(BENCH_NET_TIME) ./internal/netproto/ \
	&& $(GO) test -run '^$$' -bench 'ClusterRouter' -benchmem \
		-benchtime=$(BENCH_TIME) -count=5 ./internal/cluster/ ; } \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT) \
		-faster 'FlatVsGeneric/core=flat<FlatVsGeneric/core=generic' \
		-faster 'FlatVsGeneric/core=flat-batch<FlatVsGeneric/core=generic' \
		-faster 'FlatVsGeneric2/core=flat<FlatVsGeneric2/core=generic' \
		-faster 'FlatVsGeneric4/core=flat<FlatVsGeneric4/core=generic' \
		-maxratio 'FlatVsGeneric2/core=flat-batch<=0.714*FlatVsGeneric2/core=generic' \
		-maxratio 'FlatVsGeneric4/core=flat-batch<=0.714*FlatVsGeneric4/core=generic' \
		-maxratio 'FlatVsGenericSeries/core=flat<=0.714*FlatVsGenericSeries/core=generic' \
		-maxratio 'FlatReaders/readers=8<=1.1*FlatReaders/readers=1' \
		-faster 'FlatQuery/core=flat<FlatQuery/core=generic' \
		-zeroalloc 'FlatQuery/core=flat' \
		-zeroalloc 'FlatReaders/readers=8' \
		-zeroalloc 'Tiered/op=hit' \
		-zeroalloc 'Tiered/op=hit-traced' \
		-zeroalloc 'BreakerAllow' \
		-zeroalloc 'ShedderAdmit' \
		-zeroalloc 'HistogramObserve' \
		-maxratio 'TraceOverhead/trace=on<=1.05*TraceOverhead/trace=off' \
		-maxratio 'WireLadder/batch=64<=0.5*WireLadder/batch=1' \
		-zeroalloc 'NetDecode' \
		-maxratio 'ClusterRouter/path=local<=1.3*ClusterRouter/path=single' \
		-zeroalloc 'ClusterRouter/path=local' \
		-maxratio 'ClusterRouter/path=selfheal<=1.3*ClusterRouter/path=single' \
		-zeroalloc 'ClusterRouter/path=selfheal' \
		-zeroalloc 'ClusterRouter/path=fan' \
		-zeroalloc 'ClusterRouter/path=update' \
		-zeroalloc 'ClusterRouter/path=hot-parallel' \
		-baseline $(BENCH_BASE) \
		-within 'EngineQuery=3' \
		-within 'FlatQuery/core=flat=3' \
		-within 'Tiered/op=hit=3'

# servebench runs the serving benchmark (servebench/, the BENCHMARK.json
# command) on both gated cluster workloads, 5 s each with the per-layer
# ledger on. It fails on any nonzero exit: a wrong value read back, an
# invalid measurement or a ledger residual past its tolerance. Run it on a
# parent and a child commit for a quick before/after comparison.
servebench:
	bash servebench/run.sh --workload cluster-hot --seed 1 --seconds 5 --trace 1
	bash servebench/run.sh --workload cluster-churn --seed 1 --seconds 5 --trace 1

# bench-all is the exhaustive one-iteration smoke over every benchmark.
bench-all:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

verify:
	$(GO) run ./cmd/p4lru-bench verify

reproduce:
	$(GO) run ./cmd/p4lru-bench run -csv -o results all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/natgateway
	$(GO) run ./examples/querycache
	$(GO) run ./examples/flowmonitor
	$(GO) run ./examples/pipelinecheck
	$(GO) run ./examples/netquery

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f results/*.csv results/full_run.txt test_output.txt bench_output.txt
