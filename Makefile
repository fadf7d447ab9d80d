# Tier-1 gate for this repository (referenced from ROADMAP.md):
#
#   make check        # vet + lint + test — what CI and every PR must pass
#
# Extras:
#
#   make lint         # determinism lint suite only (cmd/asmp-lint)
#   make lint-fix     # apply the suite's machine-applicable fixes in place
#   make test-race    # full test suite under the race detector
#   make test-crash   # crash-consistency matrix, every byte-prefix (DESIGN.md §9)
#   make test-shard   # shard-supervision chaos matrix, SIGKILLed workers (DESIGN.md §11)
#   make test-cache   # result-cache corruption matrix, every byte and bit (DESIGN.md §12)
#   make serve-smoke  # asmp-serve end-to-end: coalesce, drain, cache-warm restart (DESIGN.md §10)
#   make fuzz         # fuzz the five parsers of outside input for FUZZTIME each (default 10s)
#   make golden       # regenerate the committed seed-1 artifacts
#
# Wall-clock benchmarks live in bench/ (`sh bench/run.sh`, see BENCHMARK.json).

GO ?= go

.PHONY: check vet lint lint-fix test test-race test-crash test-shard test-cache serve-smoke fuzz golden

check: vet lint test

vet:
	$(GO) vet ./...

# The determinism lint suite: statically enforces the reproducibility
# invariants (no wall clock, no unseeded randomness, no map-order
# emission, no stray concurrency, no dropped journal errors). See
# DESIGN.md §7 for the invariant catalog and `asmp-lint -list`.
lint:
	$(GO) run ./cmd/asmp-lint ./...

# Apply machine-applicable fixes (chain-erasing %v → %w, == sentinel
# compares → errors.Is, stale //asmp:allow removal). Idempotent and
# gofmt-stable; `-diff` previews the same rewrites. CI's drift gate
# fails if running this would change the committed tree.
lint-fix:
	$(GO) run ./cmd/asmp-lint -fix ./...

test:
	$(GO) build ./...
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The full crash-consistency matrix: every byte-prefix of a reference
# sweep journal must resume byte-identically or be refused with a typed
# error (DESIGN.md §9). The regular suite runs the same property over a
# sampled matrix; ASMP_CRASH_FULL makes it walk every byte. Set
# ASMP_CRASH_ARTIFACT_DIR to keep the failing journal prefix when the
# property breaks.
test-crash:
	ASMP_CRASH_FULL=1 $(GO) test -v -run 'TestCrashMatrix|TestInjectedResume|TestTornNewline' ./internal/core ./internal/journal

# The shard-supervision chaos matrix (DESIGN.md §11): real worker
# processes SIGKILL themselves at a widened sweep of byte offsets of
# their record stream (or suffer injected sink faults), and every
# interleaving must either converge to a journal byte-identical to the
# unsharded run or degrade to typed ERR cells naming the dead shard —
# under the race detector, since supervision is concurrent. Alongside
# run the supervisor's unit tests (refused stream records, respawn
# ranges, sharded resume) and every sharded-CLI test, torn-prefix
# resumes included. The regular suite runs the sampled version of the
# same property. Set ASMP_CRASH_ARTIFACT_DIR to keep the counterexample
# journal when the property breaks.
test-shard:
	ASMP_SHARD_CHAOS_FULL=1 $(GO) test -race -v -run 'TestChaos|TestSupervise|TestShard|TestRetryBudget|TestExecRunner|TestPartition' ./internal/shard ./cmd/asmp-sweep

# The result-cache corruption matrix (DESIGN.md §12): every byte-prefix
# truncation and every single-bit flip of a cache entry must either be
# refused with a typed *resultcache.DamagedError (bytes set aside as
# .damaged, cell re-simulated byte-identically) or degrade to a plain
# miss — a wrong result must never be served. The regular suite samples
# the matrix; ASMP_CACHE_FULL walks all of it. Runs under -race because
# the cache is shared mutable state, plus the cross-process publish
# stress, the warm-respawn chaos test and the tests of core's cell
# table, which fronts the cache (memo, coalescing, and a stress run
# mixing failing leaders and cancelled waiters over an attached cache).
# Set ASMP_CRASH_ARTIFACT_DIR to keep the corrupted entry when the
# property breaks.
test-cache:
	ASMP_CACHE_FULL=1 $(GO) test -race -v -run 'TestCacheCorruption|TestCorrupt|TestMultiProcessPublish|TestDiskCache|TestChaosRespawnWarmHits|TestCellTableStress|TestFlight|TestMemo' ./internal/resultcache ./internal/core ./internal/shard

# The asmp-serve end-to-end smoke: builds the real binaries, starts the
# daemon, proves duplicate concurrent sweeps coalesce (via /stats),
# checks server-rendered figure bytes against asmp-run's, SIGTERMs the
# daemon mid-sweep and verifies the drain is clean and that the result
# cache warms a restarted daemon on the same -cache-dir (cache hits in
# /stats, identical bytes on a repeat) (DESIGN.md §10).
serve-smoke:
	$(GO) test -v -run TestServeSmoke ./cmd/asmp-serve

# Fuzz the five parsers that read outside input, FUZZTIME each (`go
# test -fuzz` takes one target per invocation):
#   - the journal line decoder (internal/journal FuzzParseLine), which
#     reads journal files and the record streams shard workers send
#     their supervisor; seeded from results/sample-run.jsonl and the
#     reader's test shapes;
#   - the result-cache entry decoder (internal/resultcache
#     FuzzDecodeEntry), which reads every entry a lookup finds on disk;
#     seeded from sealed entries with non-finite and -0 metrics, torn
#     halves, a newer schema and a flipped bit;
#   - the machine-configuration parser (internal/cpu FuzzParseConfig),
#     which reads asmp-sweep -configs, asmp-trace and POST /v1/run;
#     seeded from the paper's configurations and the parse tests;
#   - the fault-plan parser (internal/fault FuzzParsePlan), which reads
#     -fault and POST /v1/run; seeded from the parse tests and the
#     wave@/walk@/stairs@ generators, and held to the String round trip
#     the run identity is built from;
#   - the sweep decoder (internal/core FuzzSweepSpec), which reads
#     asmp-sweep's flags and POST /v1/sweep bodies (sched.ParsePolicy
#     included); seeded from both front ends' error-path tests and from
#     pairs of bodies that spell one sweep two ways, and held to a
#     canonical re-encoding with the same Identity, and to equal cell
#     keys for equal identities.
# A crasher lands in the package's testdata/fuzz and then runs with
# every `go test`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseLine$$' -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime $(FUZZTIME) ./internal/resultcache
	$(GO) test -run '^$$' -fuzz '^FuzzParseConfig$$' -fuzztime $(FUZZTIME) ./internal/cpu
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzSweepSpec$$' -fuzztime $(FUZZTIME) ./internal/core

golden:
	$(GO) run ./cmd/asmp-run -all > results/figures-full.txt
	$(GO) run ./cmd/asmp-run -fig fault -out results > /dev/null
	$(GO) run ./cmd/asmp-run -fig policies -out results > /dev/null
	$(GO) run ./cmd/asmp-run -fig policies-dyn -out results > /dev/null
	$(GO) run ./cmd/asmp-run -fig ablation -out results > /dev/null
