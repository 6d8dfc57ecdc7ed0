GO ?= go

.PHONY: all build fmt vet test race difftest enginecheck plancheck speccheck rpccheck disasmcheck realcheck papercheck bench benchcheck servertest clustercheck fuzzshort fuzzhostile ci

all: build test

build:
	$(GO) build ./...

# fmt fails if any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# difftest runs the differential suites: the lock-step check at full
# size (original and rewritten image on two interpreters, state compared
# wherever the rewritten run executes an original instruction, the
# rewrite re-run under the default engine, its seeded mutations and the
# FuzzLockStep seed corpus), the epilogue pass's taken-edge and
# loop-termination runs, the per-site instrumentation counts against the original run's, the
# exit check (every trampoline's epilogue against the original text, by
# code independent of the patcher, and its seeded mutations), engines
# (interp vs ir, including the FuzzEngines seed corpus), internal/emu's
# own tests (block/invalidation, ir stats and speedup), and the
# parallel-vs-sequential corpus (byte-identity at every worker count,
# under the race detector, with the sharded recovery and matching tests
# and the patcher's lock-state invariant on the same line).
difftest:
	$(GO) test -count 1 -run 'TestLockStep|FuzzLockStep' . -args -lockstep.full
	$(GO) test -run 'TestTakenEdgeEpilogue|TestEpilogueLoopTerminates' ./internal/patch/
	$(GO) test -run 'TestContextCallInstrumentation|TestTrampolineExits' .
	$(GO) test -run FuzzEngines .
	$(GO) test ./internal/emu/enginetest/ ./internal/emu/
	$(GO) test -race -run 'TestParallelRewrite|FuzzParallelRewrite' .
	$(GO) test -race -run 'TestParallel|TestLockStateInvariant|TestPatchAllOnce|Shardable' ./internal/patch/ ./internal/disasm/ ./internal/match/

# enginecheck is the cross-engine correctness gate, interp vs ir: the
# shared conformance suite and golden per-instruction traces over every
# engine, and internal/emu's own tests: the memory/block/tracker units,
# the ir engine's optimization/speedup tests, the fallback-consistency sweep
# (TestFallbackImpliesUnsafe: every instruction lifted to the interpreter
# fallback is unsafe for flag liveness), the hot-set test
# (TestHotSetHasNoFallbacks: the emu-kernels classes lift without one
# fallback), and a short differential fuzz.
# Re-record goldens with:
#   go test ./internal/emu/enginetest/ -run TestEngineGoldenTraces -update-golden
enginecheck:
	$(GO) test ./internal/emu/enginetest/ ./internal/emu/
	$(GO) test -run '^FuzzEngines$$' -fuzz '^FuzzEngines$$' -fuzztime 5s .

# plancheck verifies the plan/apply split: plan determinism, byte-
# identity of Rewrite, Apply(DecodePlan(Encode(Plan))) at every
# parallelism width and a chunked Stream with each other and with the
# output hashes in testdata/rewrite_golden.json over the difftest corpus
# (every binary x tactic config), the same bytes written by RewriteTo
# and FinishTo and the contract of a writer that fails in each output
# segment, the output layout pinned against an in-place patch; the
# serialized plan: both golden files (the binary form and its JSON
# rendering), the tamper sweep through DecodePlan and Apply, the codec's
# own unit, tamper and allocation-bound tests, `e9dump -plan` against
# the golden rendering; the server's plan-cache rematerialization; the
# patcher's two readings of its one record (patch.Replay over Sites
# rebuilds the live image, results and statistics); and the Table 1
# golden, the paper numbers the patcher's decisions produce.
# TestPlanApplyEquivalence is the golden-hash test; re-record the
# hashes, only for an intentional output change, with:
#   go test -run TestPlanApplyEquivalence -update .
# the plan goldens, only with a plan.Version change, with:
#   go test -run TestPlanGoldenJSON -update .
# and the Table 1 golden, only for an intentional change, with:
#   go test ./cmd/e9bench/ -run TestTable1Golden -update
plancheck:
	$(GO) test -run 'TestPlan|TestApplyValidation|TestRewriteInputImmutable|TestRewriteToWriteFailure' .
	$(GO) test -run 'TestComposeMatchesPatchPlusAppend|TestWriteOutput' ./internal/elf64/
	$(GO) test ./internal/plan/
	$(GO) test -run TestDumpPlanGolden -count 1 ./cmd/e9dump/
	$(GO) test -run TestPlanCacheRematerialize ./internal/server/
	$(GO) test -run TestReplayInvertsSites ./internal/patch/
	$(GO) test -run TestTable1Golden -count 1 ./cmd/e9bench/

# speccheck verifies the match/patch spec language end to end: the
# lang unit suite (typed diagnostics, hostile-input caps, the retired
# internal/match grammar's cases, fuzz seed corpus), the golden spec
# corpus, the A1/A2 spec-vs-hardcoded byte-identity gate at every
# parallelism width, the lock-step cells of the six match expressions
# and the syscall_trace recipe, the call-trampoline recipes executed
# under the emulator (argument marshalling asserted), the served spec/payload
# transport with its 422 mapping (match/action and spec= alike), and
# hostile match expressions refused before any rewrite on every network
# path (/v1/rewrite, /v1/batch, the RPC patch message).
speccheck:
	$(GO) test ./internal/lang/
	$(GO) test -run 'TestSpecGoldenCorpus|TestRecipeFilesInSync|TestSpecSelectorEquivalence' .
	$(GO) test -run 'TestLockStep/^branchy$$/^(match=|syscall_trace)' .
	$(GO) test -run 'TestSyscallTraceRecipe|TestBranchCoverageRecipe|TestCallArgumentMarshalling|TestApplyRejectsHostileInjections' .
	$(GO) test -run 'TestSpec|TestBadSpecMaps422|TestBadRequests|TestMatchActionCallPatch|TestHostileMatchRejected|TestBatchValidation' ./internal/server/
	$(GO) test -run 'TestSessionHostileMatch|TestSessionAbuse' ./internal/rpc/

# bench runs the pipeline micro-benchmarks of the root package
# (recovery, rewriting, planning, plan application, loading and
# emulation) once each. The paper's numbers are papercheck's.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# papercheck regenerates every paper artefact (Table 1, Figures 4 and
# 5, the four ablations and the motivation table) with e9bench at scale
# 0.25 and diffs the output against bench_results_full.txt, the one
# recorded run that EXPERIMENTS.md quotes (TestExperimentsQuoteGolden).
# It takes about 40 s on two cores, so it is not part of ci. Re-record
# the file, only for an intentional change and in that change's own
# first commit, with:
#   go run ./cmd/e9bench -all -scale 0.25 > bench_results_full.txt
papercheck:
	$(GO) run ./cmd/e9bench -all -scale 0.25 | diff -u bench_results_full.txt -

# benchcheck is the regression gate over the repository's benchmark
# (`go run ./bench`, BENCHMARK.json): PAIRS alternating runs of every
# workload on a build of the parent commit and a build of this tree,
# judged per workload and end-to-end metric against the declared bounds.
# It takes minutes, so it is not part of ci; a PR that touches a layer
# carries its table. PR=N also records the run as BENCH_N.json, the file
# a perf_opt PR commits.
PAIRS ?= 3
benchcheck:
	$(GO) run ./cmd/benchcheck $(if $(PR),-pr $(PR)) $(PAIRS)

# rpccheck verifies the JSON-RPC backend protocol end to end: the
# golden transcripts in testdata/rpc replayed against the built
# cmd/e9patch binary (the backend alone: it takes no arguments and
# refuses any, and its outputs are hash-compared with the library
# path), the usage/abuse paths of the backend binary, the e9tool -backend
# subprocess pipeline and e9tool's own streamed output (to a new file,
# over its input, and failing) with its peak-RSS gate (rewrite and
# -apply-plan of a 64 MB input), the output writer that copies the
# unchanged input bytes from the input file (byte identity over the mmap
# and heap-read inputs, to a file, /dev/null, a FIFO and /dev/full) and
# the input's descriptor lifetime, and the in-library session
# grammar/abuse suite with its fuzz seed corpus.
rpccheck:
	$(GO) test -run 'TestRPCGolden|TestUsageOnTerminalStdin|TestBackendReportsStreamErrors|TestNoFrontendFlags' -count 1 ./cmd/e9patch/
	$(GO) test -run 'TestBackendPipeline|TestStreamedOutput|TestOutputPeakRSS' -count 1 ./cmd/e9tool/
	$(GO) test -run 'TestWriteOutput|TestInputCloseReleasesDescriptors' -count 1 ./internal/elf64/
	$(GO) test ./internal/rpc/

# disasmcheck gates the pluggable recovery frontends: linear
# byte-identity at every width, the superset ⊇ linear differential over
# every workload profile, the CET anchor-closure unit and profile
# suites, end-to-end superset-cet rewrites of CET and DSO binaries
# run in lock step with the originals, plan↔mode digest binding, the .so
# builder/parser geometry, the modern workload rows, and a short
# exploration of the superset-prune fuzzer. By name: the superset
# golden digests and rewrite hashes (testdata/disasm_golden.json), the
# hostile-shape complexity tests at the table and at the library
# boundary, the length kernel against the decoder it replaced (the
# exhaustive differential and 5 s of FuzzShape), the allocation-free
# decode failure test through both entry points, linear recovery in
# the per-offset table against a naive sweep (seam shapes, every profile,
# widths 1/2/3/8, and 5 s of FuzzLinearParallel), the selectors over the
# compact universe against a full decode, the built-in selectors against
# their spec-language programs, e9dump's output over a small CET binary
# in every mode (cmd/e9dump/testdata/dump_golden.txt), and the
# allocation budget of a rewrite. Re-record the
# golden file, only for an intentional change of the recovered
# universe, with (one after the other: both rewrite the one file):
#   go test ./internal/disasm/ -run TestDisasmGolden -update
#   go test . -run TestDisasmGoldenRewrite -update
disasmcheck:
	$(GO) test ./internal/disasm/
	$(GO) test -run 'TestDisasmGolden|TestSupersetHostileShapesLinear|TestSupersetPhasesPollCancel|TestLinearTableMatchesSequential|TestLinearPhasesPollCancel' -count 1 ./internal/disasm/
	$(GO) test -run 'TestSelectorsMatchFullDecode' -count 1 ./internal/lang/
	$(GO) test -run 'TestRewriteMemoryGate|TestSelectorIndexOutOfRange|TestMatchEquivalence' -count 1 .
	$(GO) test -run 'TestDumpGolden' -count 1 ./cmd/e9dump/
	$(GO) test -run 'TestKernelMatchesReference|TestShapeTables|TestDecodeFailuresAllocFree' -count 1 ./internal/x86/
	$(GO) test -run 'TestDisasm|TestHostileSupersetShapes|TestPlanModeBinding|TestSupersetRewriteReportsStats' .
	$(GO) test -run 'TestLockStep/^(cet|dso)$$' .
	$(GO) test -run 'TestSharedBuildRoundTrip|TestInitSegmentSpans|TestTextRange|TestExecSpans|TestBuildBackCompat' ./internal/elf64/
	$(GO) test -run 'TestModernProfiles|TestPaperSharedRowsUnchanged' ./internal/workload/
	$(GO) test -run 'TestSpecDisasm' ./internal/server/
	$(GO) test -run 'TestSessionDisasmOption' ./internal/rpc/
	$(GO) test -run '^FuzzSupersetPrune$$' -fuzz '^FuzzSupersetPrune$$' -fuzztime 5s ./internal/disasm/
	$(GO) test -run '^FuzzLinearParallel$$' -fuzz '^FuzzLinearParallel$$' -fuzztime 5s ./internal/disasm/
	$(GO) test -run '^FuzzShape$$' -fuzz '^FuzzShape$$' -fuzztime 5s ./internal/x86/

# realcheck holds recovery to an outside opinion on compiler output: it
# builds ./cmd/e9dump, disassembles it with `go tool objdump` and
# compares instruction boundaries with the linear sweep (agreement floor
# and named exception list in internal/disasm/real_test.go). It needs
# nothing but the Go toolchain and skips with a reason where that cannot
# build or disassemble; the same test runs in `make test`.
realcheck:
	$(GO) test -run 'TestObjdumpAgreement' -count 1 -v ./internal/disasm/

# servertest is the e9served smoke test: build the real binary, start
# it on an ephemeral port, POST a corpus binary, and check the output
# is byte-identical to a direct e9patch.Rewrite.
servertest:
	$(GO) test -run TestServedSmoke -count 1 ./cmd/e9served/

# clustercheck gates the distributed e9served surfaces on an in-process
# 3-node cluster: consistent-hash forwarding, peer plan-fetch
# byte-identity, owner-down local fallback, the internal plan endpoint,
# plan-delta responses (identity and gzip wire coding, and the egress
# gate of TestPlanDeltaGzip: a gzipped plan is <= 10 % of the full
# response and no larger than the JSON plan gzipped to), /v1/batch
# validation/quotas/streaming, the chaos batch (one node killed
# mid-batch over the hostile corpus must finish with zero 5xx), the
# one lease budget (batch items and /v1/rewrite jobs never run more
# than Workers rewrites at once, and a batch item meets the same 429),
# the goroutine-leak check (one request of every kind, an abandoned
# batch among them, then shutdown back to the baseline goroutine count
# and every worker lease returned), and
# the trusted-apply contract backing peer rematerialization. The server
# tests run under -race.
clustercheck:
	$(GO) test -race -run 'TestCluster|TestBatch|TestPlanFetch|TestPlanDelta|TestLastWaiterCancelDuringPeerFetch|TestServerNoGoroutineLeak' -count 1 ./internal/server/
	$(GO) test -run 'TestApplyTrusted' -count 1 .
	$(GO) test ./internal/cluster/

# fuzzshort actually explores the differential fuzzers and the
# serialized-plan decoder for a few seconds each (plain `go test` only
# replays the seed corpus).
fuzzshort:
	$(GO) test -run '^FuzzEngines$$' -fuzz '^FuzzEngines$$' -fuzztime 5s .
	$(GO) test -run '^FuzzLockStep$$' -fuzz '^FuzzLockStep$$' -fuzztime 5s .
	$(GO) test -run '^FuzzParallelRewrite$$' -fuzz '^FuzzParallelRewrite$$' -fuzztime 5s .
	$(GO) test -run '^FuzzPlanDecode$$' -fuzz '^FuzzPlanDecode$$' -fuzztime 5s .

# fuzzhostile explores the malformed-ELF input space (seeded from the
# checked-in testdata/hostile corpus), the appended-table decoder, and
# the hostile deterministic suites: truncations, header bit flips,
# tampered plans, limit bounds.
# The property is containment — hostile input may be rejected, but only
# with a classified error, never a panic or ErrInternal.
fuzzhostile:
	$(GO) test -run 'TestHostile|TestLibraryLimits|TestMmapFallbackDifferential' -count 1 .
	$(GO) test -run '^FuzzRewriteHostileELF$$' -fuzz '^FuzzRewriteHostileELF$$' -fuzztime 10s .
	$(GO) test -run '^FuzzDecode$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/loader

ci: fmt vet race difftest enginecheck plancheck speccheck rpccheck disasmcheck servertest clustercheck fuzzshort fuzzhostile
