# Developer entry points. CI runs the same targets.

GO ?= go

.PHONY: build test race lint lint-fix fuzz cover

# build also vets the nested bench/ module: the root `go build ./...`
# skips it, yet it compiles against the root module's internals.
build:
	$(GO) build ./...
	(cd bench && $(GO) vet ./...)

test:
	$(GO) test ./...

# race covers the full module. Skip-list: currently empty — every package
# (including the lint suite's go-list-driven integration tests) passes
# under the race detector; if a package ever legitimately can't, exclude
# it here with `go list ./... | grep -v <pkg>` and document why.
race:
	$(GO) test -race ./...

# lint is the blocking static-analysis gate: gofmt, go vet, the
# repo-specific blendlint invariant suite (typed errors, context flow,
# lock/pool/mmap discipline — see internal/lint), and staticcheck when
# installed (CI always installs it, so it blocks there; staticcheck.conf
# is the checked-in config).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o bin/blendlint ./cmd/blendlint
	./bin/blendlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not on PATH; skipping locally (CI runs it as a blocking step)"; fi

# lint-fix applies blendlint's suggested fixes in place (currently the
# berrcheck fmt.Errorf -> berr.New rewrite), then reformats.
lint-fix:
	$(GO) build -o bin/blendlint ./cmd/blendlint
	./bin/blendlint -fix ./...
	gofmt -w .

# fuzz smoke-runs every native fuzz target (seed corpora live under each
# package's testdata/fuzz/). Targets are discovered with `go test -list`,
# so a new Fuzz* function joins the smoke run without touching this file.
# Tune with FUZZTIME=5m for a real session; CI runs the 15s default on
# every push as a regression tripwire.
FUZZTIME ?= 15s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		targets=$$(printf '%s\n' "$$list" | grep '^Fuzz' || true); \
		for t in $$targets; do \
			echo "== fuzz $$pkg $$t ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# cover writes the aggregate coverage profile and prints the total; CI's
# coverage job uploads the profile and posts the total as a non-blocking
# delta against the previous main run.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
