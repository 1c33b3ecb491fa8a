GO ?= go

# CHAOS_SEED, when set, prepends one fault schedule to the chaos suite's
# built-in seeds 1-3; a red run is reproduced by re-running with the
# seed the failure printed.
chaos_env = $(if $(CHAOS_SEED),CHAOS_SEED=$(CHAOS_SEED) )
chaos_hint = echo "reproduce a chaos failure with: make chaos CHAOS_SEED=$(or $(CHAOS_SEED),<seed it printed>)"

.PHONY: verify build test race vet chaos trace fuzz

# verify is the tier-1 gate: everything must pass before a commit lands.
# One race pass runs every test once, including the chaos, replication,
# monitor, SLO and doctor suites, the wheel-vs-heap event-queue
# differentials, the decoder seed corpora and the exact virtual-outcome
# pins; trace adds the only check no test covers.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(chaos_env)$(GO) test -race ./... || { $(chaos_hint); exit 1; }
	$(MAKE) trace

# chaos runs the seeded fault-injection suite under the race detector:
# integrity under chaos, determinism across Parallelism, hedged-read
# tail-latency wins, and the migrate/pfs fault paths.
chaos:
	@$(chaos_env)$(GO) test -race -run 'Chaos|Hedge|Fault|Flaky|Crash|Restripe|Straggle|Watchdog' ./internal/... \
		|| { $(chaos_hint); exit 1; }

# trace is the observability golden check: two same-seed instrumented
# runs must export byte-identical Chrome traces and metrics dumps.
trace:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/harlctl trace -quick -out $$tmp/a.json -metrics-out $$tmp/a.txt >/dev/null && \
	$(GO) run ./cmd/harlctl trace -quick -out $$tmp/b.json -metrics-out $$tmp/b.txt >/dev/null && \
	if cmp -s $$tmp/a.json $$tmp/b.json && cmp -s $$tmp/a.txt $$tmp/b.txt; then \
		echo "trace determinism check passed"; rm -rf $$tmp; \
	else \
		echo "trace determinism check failed: same-seed exports differ"; rm -rf $$tmp; exit 1; \
	fi

# fuzz runs every native fuzz target under internal/ in turn for
# FUZZTIME; go test -list finds them, so a new target needs no edit
# here. The seed corpora under each package's testdata/fuzz already run
# with every go test; this explores beyond them, and a failing input it
# finds is written to that directory for replay.
FUZZTIME ?= 10s

fuzz:
	@set -e; for pkg in $$($(GO) list ./internal/...); do \
		for name in $$($(GO) test -list '^Fuzz' $$pkg | awk '/^Fuzz/'); do \
			echo "fuzz $$name in $$pkg for $(FUZZTIME)"; \
			$(GO) test -run='^$$' -fuzz="^$$name\$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
