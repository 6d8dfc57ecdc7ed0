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

# difftest runs the differential suites at full size: lock step, epilogues, the exit check, engines and the parallel corpus (DESIGN.md §7).
difftest:
	$(GO) test -count 1 -run 'TestLockStep|FuzzLockStep' . -args -lockstep.full
	$(GO) test -run 'TestTakenEdgeEpilogue|TestEpilogueLoopTerminates' ./internal/patch/
	$(GO) test -run 'TestContextCallInstrumentation|TestTrampolineExits|TestVerifyMutants|TestVerifyB0' .
	$(GO) test -run FuzzEngines .
	$(GO) test ./internal/emu/enginetest/ ./internal/emu/
	$(GO) test -race -run 'TestParallelRewrite|FuzzParallelRewrite' .
	$(GO) test -race -run 'TestParallel|TestLockStateInvariant|TestPatchAllOnce|Shardable' ./internal/patch/ ./internal/disasm/ ./internal/match/

# enginecheck is the engine gate (DESIGN.md §13): the host CPU against both engines (TestEnginesMatchCPU) for the semantics, interp against ir for lifting, fusion, chaining, charges and faults, and both against the recorded traces and Counters. Re-record the goldens (the traces and counters.golden), only for an intentional change, with:
#   go test ./internal/emu/enginetest/ -update-golden
enginecheck:
	$(GO) test ./internal/emu/enginetest/ ./internal/emu/
	$(GO) test -run '^FuzzEngines$$' -fuzz '^FuzzEngines$$' -fuzztime 5s -fuzzminimizetime 1s .

# plancheck verifies plan and apply against the golden hashes, plans and Table 1 (DESIGN.md §8). Re-record, only for an intentional change:
#   go test -run TestPlanApplyEquivalence -update .        (output hashes)
#   go test -run TestPlanGoldenJSON -update .              (plan goldens, with a plan.Version change)
#   go test ./cmd/e9bench/ -run TestTable1Golden -update   (Table 1)
plancheck:
	$(GO) test -run 'TestPlan|TestApplyValidation|TestRewriteInputImmutable|TestRewriteToWriteFailure' .
	$(GO) test -run 'TestComposeMatchesPatchPlusAppend|TestWriteOutput' ./internal/elf64/
	$(GO) test ./internal/plan/
	$(GO) test -run TestDumpPlanGolden -count 1 ./cmd/e9dump/
	$(GO) test -run TestPlanCacheRematerialize ./internal/server/
	$(GO) test -run TestReplayInvertsSites ./internal/patch/
	$(GO) test -run TestTable1Golden -count 1 ./cmd/e9bench/

# speccheck verifies the match/patch spec language end to end (DESIGN.md §10).
speccheck:
	$(GO) test ./internal/lang/
	$(GO) test -run 'TestSpecGoldenCorpus|TestRecipeFilesInSync|TestSpecSelectorEquivalence' .
	$(GO) test -run 'TestLockStep/^branchy$$/^(match=|syscall_trace)' .
	$(GO) test -run 'TestSyscallTraceRecipe|TestBranchCoverageRecipe|TestCallArgumentMarshalling|TestApplyRejectsHostileInjections' .
	$(GO) test -run 'TestSpec|TestBadSpecMaps422|TestBadRequests|TestMatchActionCallPatch|TestHostileMatchRejected|TestBatchValidation' ./internal/server/
	$(GO) test -run 'TestSessionHostileMatch|TestSessionAbuse' ./internal/rpc/

# bench runs the root package's pipeline micro-benchmarks once each; the paper's numbers are papercheck's.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# papercheck regenerates every paper artefact and diffs bench_results_full.txt (DESIGN.md §1; about 40 s). Re-record, only for an intentional change and in its own first commit, with:
#   go run ./cmd/e9bench -all -scale 0.25 > bench_results_full.txt
papercheck:
	$(GO) run ./cmd/e9bench -all -scale 0.25 | diff -u bench_results_full.txt -

# benchcheck gates this tree against its parent commit on every workload of go run ./bench (BENCHMARK.json); PR=N also records BENCH_<N>.json.
PAIRS ?= 3
benchcheck:
	$(GO) run ./cmd/benchcheck $(if $(PR),-pr $(PR)) $(PAIRS)

# rpccheck verifies the JSON-RPC backend and e9tool's streamed output end to end (DESIGN.md §11).
rpccheck:
	$(GO) test -run 'TestRPCGolden|TestUsageOnTerminalStdin|TestBackendReportsStreamErrors|TestNoFrontendFlags' -count 1 ./cmd/e9patch/
	$(GO) test -run 'TestBackendPipeline|TestStreamedOutput|TestOutputPeakRSS' -count 1 ./cmd/e9tool/
	$(GO) test -run 'TestWriteOutput|TestInputCloseReleasesDescriptors' -count 1 ./internal/elf64/
	$(GO) test ./internal/rpc/

# disasmcheck gates the recovery frontends and the length kernel (DESIGN.md §3). Re-record the golden, only for an intentional change of the recovered universe, one after the other:
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
	$(GO) test -run '^FuzzSupersetPrune$$' -fuzz '^FuzzSupersetPrune$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/disasm/
	$(GO) test -run '^FuzzLinearParallel$$' -fuzz '^FuzzLinearParallel$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/disasm/
	$(GO) test -run '^FuzzShape$$' -fuzz '^FuzzShape$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/x86/

# realcheck holds linear recovery to go tool objdump's boundaries on a built cmd/e9dump (DESIGN.md §3).
realcheck:
	$(GO) test -run 'TestObjdumpAgreement' -count 1 -v ./internal/disasm/

# servertest is the e9served smoke test: a built binary's output against a direct e9patch.Rewrite (DESIGN.md §12).
servertest:
	$(GO) test -run TestServedSmoke -count 1 ./cmd/e9served/

# clustercheck gates the service and cluster surfaces on an in-process three-node cluster, under -race (DESIGN.md §12).
clustercheck:
	$(GO) test -race -run 'TestCluster|TestBatch|TestPlanDelta|TestLastWaiterCancelDuringOwnerHop|TestClientLeavesDuringOwnerHop|TestServerNoGoroutineLeak' -count 1 ./internal/server/
	$(GO) test -run 'TestApplyTrusted' -count 1 .
	$(GO) test ./internal/cluster/

# fuzzshort explores the differential fuzzers, the plan decoder and Apply against ApplyTrusted for 5 s each (plain go test replays only their seeds). Like every -fuzz line in this file, each minimizes a new input for 1 s at most, not the default 60 s, so a short run explores instead of minimizing (TestMakefileFuzzLinesCapMinimizing).
fuzzshort:
	$(GO) test -run '^FuzzEngines$$' -fuzz '^FuzzEngines$$' -fuzztime 5s -fuzzminimizetime 1s .
	$(GO) test -run '^FuzzLockStep$$' -fuzz '^FuzzLockStep$$' -fuzztime 5s -fuzzminimizetime 1s .
	$(GO) test -run '^FuzzParallelRewrite$$' -fuzz '^FuzzParallelRewrite$$' -fuzztime 5s -fuzzminimizetime 1s .
	$(GO) test -run '^FuzzPlanDecode$$' -fuzz '^FuzzPlanDecode$$' -fuzztime 5s -fuzzminimizetime 1s .
	$(GO) test -run '^FuzzApplyPlan$$' -fuzz '^FuzzApplyPlan$$' -fuzztime 5s -fuzzminimizetime 1s .

# fuzzhostile explores hostile ELF inputs and the appended-table decoder: a rejection must be classified, never a panic, and an accepted input must pass the output checker (DESIGN.md §9).
fuzzhostile:
	$(GO) test -run 'TestHostile|TestLibraryLimits|TestMmapFallbackDifferential' -count 1 .
	$(GO) test -run '^FuzzRewriteHostileELF$$' -fuzz '^FuzzRewriteHostileELF$$' -fuzztime 10s -fuzzminimizetime 1s .
	$(GO) test -run '^FuzzDecode$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/loader

ci: fmt vet race difftest enginecheck papercheck plancheck speccheck rpccheck disasmcheck servertest clustercheck fuzzshort fuzzhostile
