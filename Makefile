# Build/verify/benchmark entry points for the wsinterop study.

GO ?= go
# Benchmarks recorded in the machine-readable trajectory. FullCampaign
# runs the complete 79 629-test study once; drop it (make bench-json
# BENCH='Fig4Campaign|TableIII$$|ShapeDedup') for a quicker refresh.
# Plan records the cold plan build only (Plan/cold): there is no plan
# cache to warm.
BENCH ?= Fig4Campaign|TableIII$$|FullCampaign|ShapeDedup|AnalysisCache|Plan$$|RobustnessMatrix
# bench-check tolerance: fail when the capped FullCampaign tests/s
# drops by more than this fraction vs the committed BENCH_campaign.json.
BENCH_TOLERANCE ?= 0.10
# bench-check catalog cap (classes per catalog); keeps the CI guard
# fast while still exercising the full pipeline. The capped run reports
# as FullCampaign/limit=$(BENCH_LIMIT); bench-json records it next to
# the full-scale FullCampaign, so the guard compares like with like.
BENCH_LIMIT ?= 300
# Runs of the capped FullCampaign, recorded and checked alike: 5 runs
# of 20 iterations, folded by benchjson into their median. On a 2-core
# VM single 3x runs (about 15 ms an iteration) spread 597k-762k tests/s,
# past the 10% tolerance; 5-run medians spread 610k-729k.
BENCH_LIMIT_RUNS := -benchtime 20x -count 5

.PHONY: build test test-short bench bench-json bench-check bench-smoke vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# bench prints the campaign benchmarks to the terminal.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 3x -benchmem -count 1 .

# bench-json records the benchmark trajectory to BENCH_campaign.json,
# giving later changes a perf baseline to diff against: the BENCH set,
# then the capped FullCampaign/limit=$(BENCH_LIMIT) entry bench-check
# compares against.
bench-json:
	{ $(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 3x -benchmem -count 1 . && \
	  FULLCAMPAIGN_LIMIT=$(BENCH_LIMIT) $(GO) test -run '^$$' -bench 'FullCampaign$$' $(BENCH_LIMIT_RUNS) -benchmem . ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_campaign.json

# bench-check is the perf regression guard: re-run FullCampaign on a
# reduced catalog (FULLCAMPAIGN_LIMIT) and fail when its tests/s lands
# more than BENCH_TOLERANCE below the committed entry of the same cap
# (FullCampaign/limit=$(BENCH_LIMIT)); a baseline without that entry
# fails the check instead of being compared at another scale. The run also
# writes a CPU profile (bench-cpu.prof) so a regression arrives with
# the evidence needed to diagnose it attached.
bench-check:
	FULLCAMPAIGN_LIMIT=$(BENCH_LIMIT) $(GO) test -run '^$$' -bench 'FullCampaign$$' $(BENCH_LIMIT_RUNS) -benchmem -cpuprofile bench-cpu.prof . | $(GO) run ./cmd/benchjson -check -baseline BENCH_campaign.json -max-regress $(BENCH_TOLERANCE)

# bench-smoke is the CI guard: every campaign benchmark must still run,
# and so must the journal's append bench (its ns/record stays flat in n).
bench-smoke:
	$(GO) test -run '^$$' -bench 'Fig4Campaign|ShapeDedup|AnalysisCache|RobustnessMatrix' -benchtime 1x -benchmem -count 1 .
	$(GO) test -run '^$$' -bench 'JournalAppend' -benchtime 1x -benchmem -count 1 ./internal/journal
