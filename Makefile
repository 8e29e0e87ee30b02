# Tier-1 gate: everything `make ci` runs must stay green.
GO ?= go

.PHONY: ci fmt vet crossbuild test race overlap planrule benchsmoke fuzzsmoke bce soak loc surface knobs

ci: fmt vet crossbuild bce race overlap planrule test fuzzsmoke benchsmoke

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

# Both sides of pack.Map's build tag: unix maps a partition file, every
# other platform reads it into memory. Vetting the module, tests included,
# for a GOOS of each kind keeps the side this host does not build from
# going stale.
crossbuild:
	GOOS=windows $(GO) vet ./...
	GOOS=darwin $(GO) vet ./...

# Both run the kill-schedule runner's ci seed set (TestKillSchedules:
# four seeds under none, ec(1,0) and ec(2,1), ~10 s plain or -race).
test:
	$(GO) build ./... && $(GO) test ./...
	$(GO) test -C bench ./...

race:
	$(GO) test -race ./...

# The two overlapping-membership rows of the lifecycle table (joins
# released together; a leave racing a join), the written-file
# visibility rounds (a record reaching its home after the writer's
# barrier), the four-worker delivery run (a batch's buffers recycled
# while its consumer still reads them) and the pipeline's Stop rows (the
# last batch recycled at Stop, and never by the pipeline's own shutdown
# after a failed read while the consumer holds it) depend on the
# schedule, and one pass of `race` draws one: run them twenty times. The
# kill table (a rank dies mid-read under each redundancy; reads degrade,
# or fail with ErrLost, while the repair races them) runs ten times.
# The hash encoders borrow match tables from one sync.Pool, which under
# -race drops entries at random: twenty passes of the concurrent
# compress and of the history test on the pooled encoders hand them
# fresh tables and tables dirty with other inputs, and the output must
# not tell them apart. A fetch reply lends stored bytes that writev reads
# after the handler has returned: ten passes of the one fanstore test that
# drives demand and batched fetches over real sockets, and of the rpc
# server's owned-and-lent reply over TCP.
overlap:
	$(GO) test -race -count 20 -run 'TestNodeLifecycle/joiner/(concurrent|during-leave)|TestWrittenFileVisibleAfterBarrier|TestPipelineRecyclesDeliveredBuffers/workers=4' ./internal/fanstore
	$(GO) test -race -count 20 -run 'TestStopRecyclesLastBatch' ./internal/prefetch
	$(GO) test -race -count 10 -run 'TestECKillRankDegradedReadsAndRepair|^TestRecycledFrameNeverReachesTheCache$$' ./internal/fanstore
	$(GO) test -race -count 20 -run '^(TestConcurrentUse|TestCompressIndependentOfHistory)$$/^(compress|lz4|lz4fast-8|lzf-2|lz4hc-9|lzsse8-4)$$' ./internal/codec
	$(GO) test -race -count 10 -run '^TestReplyOwnedAndLentParts$$/^tcp$$' ./internal/rpc

# The cache's next-use eviction rule: its property test draws new random
# operation streams on every run, and the live two-rank row (the plan's
# staged and retained entries survive until they are read) depends on how
# the stager and the consumer interleave: five passes of each (~10 s).
planrule:
	$(GO) test -race -count 5 -run 'TestCacheInvariantsQuick|TestPlanDecidesEvictionLive' ./internal/fanstore

# One iteration of every benchmark, so instrumented hot paths cannot
# silently stop compiling (or start panicking) in bench-only code.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Five seconds of every fuzz target in the module, found by listing, not
# by hand: `go test` alone only replays the seed corpora, and the decoders
# of peer bytes (TCP frame header, rpc key/item frames, the fetch request)
# sit on the hottest path.
fuzzsmoke:
	@$(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { names = names " " $$1 } /^ok/ { n = split(names, f, " "); for (i = 1; i <= n; i++) print $$2, f[i]; names = "" }' | \
	while read -r pkg fuzz; do \
		echo "fuzz $$pkg $$fuzz"; \
		$(GO) test -run '^$$' -fuzz "^$$fuzz\$$" -fuzztime 5s "$$pkg" || exit 1; \
	done

# The bounds checks the compiler leaves inside lz4Decompress, the loop
# every lz4/lz4hc/lzsse block decodes through. Its fast zone re-slices
# once per sequence so that the word loads and stores need none; on one
# toolchain the count is exact, unlike a timing run, so an edit that puts
# checks back fails here. Lower BCE_MAX when a change removes some.
BCE_MAX = 16
bce:
	@out="$$($(GO) build -gcflags='fanstore/internal/codec=-d=ssa/check_bce/debug=1' ./internal/codec 2>&1)" || { echo "$$out"; exit 1; }; \
	lines="$$(awk '/^func lz4Decompress\(/ { s = NR } s && /^}/ { print s, NR; exit }' internal/codec/lz4.go)"; \
	n=$$(echo "$$out" | awk -F: -v lines="$$lines" 'BEGIN { split(lines, r, " ") } \
		$$1 == "internal/codec/lz4.go" && $$2 >= r[1] && $$2 <= r[2] { n++ } END { print n + 0 }'); \
	echo "lz4Decompress (lz4.go:$${lines% *}-$${lines#* }): $$n bounds checks, limit $(BCE_MAX)"; \
	[ "$$n" -le $(BCE_MAX) ]

# The long-running tests (build tag `soak`), outside ci: those that must
# wait out a real protocol timeout, such as the survivors' Close after a
# member died without saying bye (60 s), and the kill-schedule runner
# over a hundred seeds past the ci set (~4 min).
soak:
	$(GO) test -tags soak -run Soak -timeout 20m ./internal/fanstore

# Non-test Go lines of the directories the ROADMAP's simplicity
# acceptances quote, so a PR compares `make loc` at parent and change
# instead of counting by hand. The four after cmd are where lines that
# leave cmd/ tend to land; codec and selector are the compressor suite
# and the Eq. 1-3 selection the model's inputs come from; "." is the
# root package alone (api.go); fanstore+member is the pair the store's
# control protocol lives in;
# rpc+mpi is the pair ROADMAP item 5 bounds ("not larger"); the last line
# is every non-test .go file of the module (bench/ is a module of its
# own).
loc:
	@for d in internal/fanstore internal/member internal/rpc internal/mpi \
		internal/prefetch internal/trainsim internal/experiments cmd \
		internal/dataset internal/cluster examples internal/decomp internal/obs \
		internal/codec internal/selector; do \
		printf '%-22s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
	@printf '%-22s %6d\n' . $$(cat $$(ls *.go | grep -v _test.go) | wc -l)
	@printf '%-22s %6d\n' fanstore+member $$(find internal/fanstore internal/member -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-22s %6d\n' rpc+mpi $$(find internal/rpc internal/mpi -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-22s %6d\n' module $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)

# The exported surface of the packages the simplicity acceptances quote:
# package-level identifiers (`go doc -short`: constants, variables,
# functions, types — an alias counts as a type) and exported methods.
surface:
	@for p in . ./internal/fanstore ./internal/rpc ./internal/prefetch ./internal/decomp ./internal/codec; do \
		printf '%-22s %4d identifiers %4d methods\n' $$p \
			$$($(GO) doc -short $$p | wc -l) \
			$$($(GO) doc -short -all $$p | grep -c '^func ('); \
	done

# What a user can set: the fields of the option structs (a line naming
# two fields counts twice, an embedded struct once) and the flags each
# command defines. The simplicity guide asks every PR for this count at
# parent and change.
knobs:
	@for ft in internal/fanstore/store.go:Options internal/fanstore/elastic.go:ElasticOptions \
		internal/prefetch/plan.go:SchedOptions internal/prefetch/prefetch.go:Options; do \
		printf '%-44s %3d fields\n' $$ft $$(awk -v t="$${ft#*:}" ' \
			$$0 == "type " t " struct {" { on = 1; next } \
			on && /^}/ { on = 0 } \
			on && NF && $$1 !~ /^\/\// { n++; for (i = 1; i < NF && $$i ~ /,$$/; i++) n++ } \
			END { print n + 0 }' $${ft%:*}); \
	done
	@for d in cmd/*/; do \
		printf '%-44s %3d flags\n' $$d $$(cat $$d*.go | grep -oE 'flag\.(Bool|Int|Int64|Uint|Uint64|String|Duration|Float64|Func|BoolFunc|TextVar|Var)(Var)?\(' | wc -l); \
	done
