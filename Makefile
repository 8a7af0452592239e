GO ?= go

.PHONY: build test check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check = vet + race-detector run over the concurrent packages (corpus
# worker pool, parallel ml, memoized placement, per-application
# evaluation lanes sharing one slot pool), plus the identity, allocation,
# fuzz and end-to-end smokes of scripts/check.sh.
check:
	./scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
