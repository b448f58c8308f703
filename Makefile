# Developer entry points.  Everything shells out to the standard Go
# toolchain; the targets only pin the flags so results are comparable.

GO ?= go

.PHONY: build test race bench vet fmt

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
	SWITCHPROBE_BENCH_PRESET=ci $(GO) test -run '^$$' -bench 'Fig3PacketLatencies|Table1PairSlowdowns|Table1StrictOrder|Table1Traced|SchedCampaign|BulkTraffic|FaultTraffic' -benchtime 1x ./...
