# Developer entry points.  Everything shells out to the standard Go
# toolchain; the targets only pin the flags so results are comparable.

GO ?= go

.PHONY: build test race bench bench-json vet fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Quick human-readable benchmark pass at the CI scale.
bench:
	SWITCHPROBE_BENCH_PRESET=ci $(GO) test -run '^$$' -bench 'Fig3PacketLatencies|Table1PairSlowdowns|Table1StrictOrder|Table1GoroutineRanks|Table1Traced|SchedCampaign|BulkTraffic|FaultTraffic' -benchtime 1x ./...

# Machine-readable benchmark record: runs the headline cold-path benchmarks
# (including the relaxed-vs-strict and traced-vs-untraced Table 1 A/B pairs)
# and writes BENCH_PR10.json (name -> ns/op, events fired/elided, ledger
# clamps, events/s).
bench-json:
	$(GO) run ./cmd/benchjson -preset ci -benchtime 1x -count 3 -out BENCH_PR10.json
