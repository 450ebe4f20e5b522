GO ?= go

.PHONY: build test check bench bench-classes bench-diff bench-mem bench-server bench-incremental bench-enforce bench-enforce-diff trace-smoke fuzz-smoke daemon-smoke metrics-smoke

# Each fuzz target gets a short randomized burn beyond its seed corpus.
FUZZ_TIME ?= 30s
FUZZ_TARGETS = \
	FuzzParse:./internal/php \
	FuzzConfined:./internal/sqlgram \
	FuzzRun:./internal/interp \
	FuzzParseCompile:./internal/rx \
	FuzzAnalyze:./internal/analysis \
	FuzzIntersect:./internal/grammar \
	FuzzWitness:./internal/grammar \
	FuzzRecognize:./internal/grammar \
	FuzzSliceKey:./internal/grammar \
	FuzzImage:./internal/fst \
	FuzzByteClasses:./internal/rx \
	FuzzServerRequest:./internal/server \
	FuzzDecodeRequest:./internal/server \
	FuzzPackLoad:./internal/enforce \
	FuzzEarley:./internal/deriv \
	FuzzDeterminize:./internal/automata

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: gofmt, vet, build, the full test suite under the
# race detector (the analyzer runs pages and hotspot checks concurrently;
# this includes the golden report tests and the obs tracer suite), then an
# end-to-end traced -table1 run in both export formats. The gofmt step scans
# tracked files only, so the benchmark's build directory stays out of it.
# The benchmark harness in bench/ is its own module (replace sqlciv => ../)
# that the root ./... never reaches, so it is vetted and tested separately:
# a refactor of the internal packages it imports, or of the caches its
# census checks drive the real binaries against, fails here rather than in
# the benchmark run.
check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) trace-smoke

# bench runs the Table 1 suite with -benchmem and records every metric
# (ns/op, allocs, grammar census, verdict-cache hit rate) to
# BENCH_table1.json via cmd/benchjson. The raw go-test output still streams
# to the terminal.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkTable1' -benchtime 2x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_table1.json

# bench-classes is the alphabet-compression canary: every prebuilt policy
# and XSS check DFA must stay within the byte-class budget (24 classes).
# A check automaton growing past that bound means some construction started
# distinguishing bytes the policy does not care about, which would inflate
# every relation fixpoint seeded from it. Verbose so the per-DFA census
# (states / classes / slab bytes) lands in the CI log.
bench-classes:
	$(GO) test -run TestCheckDFAClassBudget -v ./internal/policy ./internal/xss

# bench-diff is the performance ratchet: bench the working tree into
# BENCH_new.json (not committed) and compare it against the committed
# BENCH_table1.json baseline. Wall-clock gets a loose band (2x-iteration
# runs are noisy); the allocation metrics are nearly deterministic, so B/op
# and allocs/op ratchet much tighter — an allocator regression fails here
# even when ns/op hides it. The full comparison lands in bench-diff.json
# (CI uploads it as an artifact).
bench-diff:
	$(GO) test -run '^$$' -bench 'BenchmarkTable1' -benchtime 2x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_new.json
	$(GO) run ./cmd/benchdiff -metrics 'ns/op:25,B/op:15,allocs/op:10' -o bench-diff.json \
		BENCH_table1.json BENCH_new.json

# bench-mem is the allocator smoke: a short pass over the two biggest
# subjects with -benchmem, ratcheting only the allocation metrics (tight
# bands, no wall-clock — B/op and allocs/op barely move run to run, so this
# is cheap enough to gate every PR). -benchtime must match the committed
# baseline's (2x): per-op numbers amortize one-time process-global warmup
# (intern pool, interned DFAs, rx caches) over the iteration count, so a
# different count skews the first subject's B/op. Note for noisy hosts: with
# GODEBUG=madvdontneed=1 the runtime returns memory eagerly, which perturbs
# RSS-based observations but NOT B/op or allocs/op — those count
# allocations, not resident pages, so the ratchet is immune to that knob.
bench-mem:
	$(GO) test -run '^$$' -bench 'BenchmarkTable1_(Tiger|E107)$$' -benchtime 2x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_mem.json
	$(GO) run ./cmd/benchdiff -metrics 'B/op:15,allocs/op:10' -o bench-mem-diff.json \
		BENCH_table1.json BENCH_mem.json

# bench-server measures the daemon's serving throughput: warm HTTP+JSON
# round trips per second (sync and async, single subjects and a mixed
# fleet) plus custom metrics — warm-hit-% (the fraction of hotspot checks a
# warm resident server answers from its verdict-cache tiers instead of
# recomputing) and p99-ms (the server's own request-latency histogram over
# /v1/analyze). Each run also prints a "benchsnap" line carrying the full
# served metrics snapshot, which benchjson records under "snapshots".
# Records to BENCH_server.json; the EXPERIMENTS.md analysis-as-a-service
# table comes from this file.
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchtime 5x ./internal/server \
		| $(GO) run ./cmd/benchjson -o BENCH_server.json

# bench-incremental measures incremental re-analysis per Table 1 subject:
# the Cold benchmarks are the from-scratch baseline (fresh session each
# iteration), the Edit benchmarks re-analyze through a warm session after
# editing exactly one entry page. The headline number is the Edit/Cold
# ns/op ratio per subject; the custom metrics (incr-page-replay-pct,
# incr-hotspot-replay-pct, incr-file-reuse-pct, files-parsed) pin how much
# of the app was replayed rather than recomputed. Records to
# BENCH_incremental.json; the EXPERIMENTS.md incremental table comes from
# this file.
bench-incremental:
	$(GO) test -run '^$$' -bench 'BenchmarkIncremental' -benchtime 5x . \
		| $(GO) run ./cmd/benchjson -o BENCH_incremental.json

# bench-enforce measures the runtime enforcement engine: queries/sec through
# the zero-alloc pack matcher (target ≥1M/s single-core), ns per query byte,
# serialized pack size, and the false-block rate over the legit witness
# corpus (must be 0 — the pack language over-approximates each hotspot's
# derived language). BenchmarkEnforceCompile adds the pack-compilation cost
# itself. Records to BENCH_enforcement.json; the EXPERIMENTS.md enforcement
# table comes from this file.
bench-enforce:
	$(GO) test -run '^$$' -bench 'BenchmarkEnforce' -benchtime 2s -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_enforcement.json

# bench-enforce-diff ratchets enforcement against the committed
# BENCH_enforcement.json baseline with two fresh runs (not committed). The
# matcher goes to BENCH_enforce_new.json: allocs/op has a zero baseline,
# which benchdiff ratchets absolutely — any allocation on the enforcement
# hot path fails CI regardless of band. queries/s is deliberately not
# ratcheted (wall-clock noise); ns/op gets the usual loose band. Pack
# compilation goes to BENCH_enforce_compile_new.json and is held to the
# bench-mem allocation bands on B/op and allocs/op. Each diff sees only its
# own benchmark, because benchdiff skips benchmarks missing on one side.
bench-enforce-diff:
	$(GO) test -run '^$$' -bench 'BenchmarkEnforceMatch' -benchtime 2s -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_enforce_new.json
	$(GO) run ./cmd/benchdiff -metrics 'ns/op:50,B/op:0,allocs/op:0' -o bench-enforce-diff.json \
		BENCH_enforcement.json BENCH_enforce_new.json
	$(GO) test -run '^$$' -bench 'BenchmarkEnforceCompile' -benchtime 2s -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_enforce_compile_new.json
	$(GO) run ./cmd/benchdiff -metrics 'B/op:15,allocs/op:10' -o bench-enforce-compile-diff.json \
		BENCH_enforcement.json BENCH_enforce_compile_new.json

# daemon-smoke is the end-to-end service check: start sqlcheckd on a
# loopback port with a throwaway verdict-cache dir, submit a corpus subject
# through the real HTTP surface with the library client — sync, then async
# with polling — and require the known findings plus a warm cache hit on
# the repeat.
daemon-smoke:
	$(GO) run ./cmd/sqlcheckd -smoke -cache-dir "$$(mktemp -d)"

# metrics-smoke is the end-to-end telemetry check: boot sqlcheckd on a
# loopback port, serve one healthy and one budget-starved (degraded)
# analyze, then require that /metrics parses as strict Prometheus text with
# every core series family present and that the degraded request's full
# span trace is still retrievable from /debug/flight after the fact.
metrics-smoke:
	$(GO) run ./cmd/sqlcheckd -metrics-smoke

# trace-smoke exercises the observability surface end to end: a -table1 run
# with a Chrome trace (Perfetto-loadable; CI uploads it as an artifact) and
# a JSONL trace.
trace-smoke:
	$(GO) run ./cmd/sqlcheck -table1 -trace table1-trace.json -trace-format chrome > /dev/null
	$(GO) run ./cmd/sqlcheck -table1 -trace table1-trace.jsonl -trace-format jsonl > /dev/null

# fuzz-smoke runs every fuzz target for FUZZ_TIME each — long enough to
# shake out shallow regressions, short enough for CI. Minimizing a new
# input may take at most 5s (go's default is 60s, which let a target spend
# its whole FUZZ_TIME minimizing instead of executing).
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "== $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZ_TIME) -fuzzminimizetime 5s $$pkg; \
	done
