# Build/verify/benchmark entry points for the wsinterop study.

GO ?= go
# Benchmarks recorded in the machine-readable trajectory. FullCampaign
# runs the complete 79 629-test study once; drop it (make bench-json
# BENCH='Fig4Campaign|TableIII$$|ShapeDedup') for a quicker refresh.
# Plan records the cold plan build only (Plan/cold): there is no plan
# cache to warm.
BENCH ?= Fig4Campaign|TableIII$$|FullCampaign|ShapeDedup|AnalysisCache|Plan$$
# bench-check tolerance: fail when FullCampaign tests/s drops by more
# than this fraction vs the committed BENCH_campaign.json.
BENCH_TOLERANCE ?= 0.10
# bench-check catalog cap (classes per catalog); keeps the CI guard
# fast while still exercising the full pipeline.
BENCH_LIMIT ?= 300

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
# giving later changes a perf baseline to diff against.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 3x -benchmem -count 1 . | $(GO) run ./cmd/benchjson -o BENCH_campaign.json

# bench-check is the perf regression guard: re-run FullCampaign on a
# reduced catalog (FULLCAMPAIGN_LIMIT) and fail when tests/s lands
# more than BENCH_TOLERANCE below the committed baseline. The run also
# writes a CPU profile (bench-cpu.prof) so a regression arrives with
# the evidence needed to diagnose it attached.
bench-check:
	FULLCAMPAIGN_LIMIT=$(BENCH_LIMIT) $(GO) test -run '^$$' -bench 'FullCampaign' -benchtime 3x -benchmem -count 1 -cpuprofile bench-cpu.prof . | $(GO) run ./cmd/benchjson -check -baseline BENCH_campaign.json -max-regress $(BENCH_TOLERANCE)

# bench-smoke is the CI guard: every campaign benchmark must still run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Fig4Campaign|ShapeDedup|AnalysisCache' -benchtime 1x -count 1 .
