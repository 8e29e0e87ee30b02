# Tier-1 gate: everything `make ci` runs must stay green.
GO ?= go

.PHONY: ci fmt vet test race bench benchsmoke

ci: fmt vet race test benchsmoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench/ is a module of its own (the repository's benchmark, see
# bench/README.md), so ./... does not reach it: vet and test it by name.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

test:
	$(GO) build ./... && $(GO) test ./...
	$(GO) test -C bench ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run XXX -bench . -benchtime 200x ./internal/fanstore/... ./internal/codec/...

# One iteration of every benchmark, so instrumented hot paths cannot
# silently stop compiling (or start panicking) in bench-only code.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
