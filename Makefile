GO ?= go

.PHONY: all build test test-race test-stress vet check ci bench bench-compare bench-store bench-crdt bench-vclock bench-fig4 bench-obs

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages with concurrency-heavy code — sealed snapshots and COW forks
# (crdt), sharded store locks and background base advancement (store), the DC
# write pipeline, push fan-out and multicast trees (dc, edge), the metric
# registry (obs), the group-commit WAL writer (wal), both network substrates and the
# codec they share (simnet, transport, transport/tcp, wire, bin), the
# replication mesh (replication), the peer-group / EPaxos quorum machinery
# (group, epaxos), and the end-to-end benchmark's tracker and decorators
# (benchmark) — run under the race detector on every check.
test-race:
	$(GO) test -race ./internal/crdt ./internal/store ./internal/dc ./internal/edge ./internal/obs ./internal/wal ./internal/simnet ./internal/transport ./internal/transport/tcp ./internal/wire ./internal/bin ./internal/group ./internal/epaxos ./internal/replication ./benchmark

# The push path — interest shards, multicast trees, relays, receiver cursors
# and the resume that repairs them — twenty times over under the race
# detector: every review pass this code needed was a race, and "green most
# runs" is not green. The second line does the same for group visibility: the
# store's mark and seed read, the materialisation cache under them, a member
# joining, being evicted, re-subscribing, migrating and leaving while the
# group commits, and the parent's push stream to its members — frames in
# position order, a lost frame, a bounded range reply, a rejoin, a migration
# into a group cut off from its DC — run it after any change to
# store.entryVisible, edge.ApplyGroupTx, edge.ApplyPush, or group.Parent's
# seeding or stream. The third runs the EPaxos
# seeded schedules and the group's consensus driver — concurrent handlers,
# listeners that commit, per-member order, the PSI wait — the same way; run it
# after any change to internal/epaxos or group's driver. The fourth covers the
# per-history costs kept flat: the TCP write loop's flush-on-drain, the DC's
# anti-entropy resend from a peer's position, the DC's masking rule against
# its scan reference and the visibility recheck, and the RGA's chunked kernel —
# and tcp sends to one destination staying on one connection; run it after
# any change to tcp's writeLoop or connFor, the DC's history or visibility code
# (recordLocked, maskLocked, RecheckVisibility, antiEntropyLocked) or
# crdt/rga.go. The fifth covers durability and folding: the group-commit WAL
# (batching, torn tails, corrupt records, append after a crash, completions),
# the store's background fold and its re-fold request, the DC's stable cut met
# with its own state, and the durable ack as an event — Deferred replies on
# every substrate, edge commits sharing fsyncs over real TCP, acked ⇒ logged,
# duplicates and stamp-ordered records — and the edge's uplink flights: a
# flight stamped in dot order, stopped at its first failure, a backlog
# drained in one flight, a DC restart and a migration with a flight in
# flight; run it after any change to internal/wal, store/advance.go,
# dc.Stable, the DC's commitAt or acceptEdgeTx, the edge's drainUnacked or
# a substrate's reply path.
test-stress:
	$(GO) test -race -count=20 -run 'Tree|Sharded|Fanout|Push|Relay|Resume' ./internal/dc ./internal/edge
	$(GO) test -race -count=20 -run 'GroupVisible|Seed|ReadCache|Migration|Leave|Stream' ./internal/store ./internal/group
	$(GO) test -race -count=20 -run 'Seeded|Concurrent|Group|PSI' ./internal/epaxos ./internal/group
	$(GO) test -race -count=20 -run 'WriteLoop|AntiEntropy|RGA|Masking|Recheck|SendsStay' ./internal/transport/tcp ./internal/dc ./internal/crdt
	$(GO) test -race -count=20 -run 'GroupCommit|Replay|Append|AutoAdvance|Stable|Deferred|AppendThen|ShareFsync|AckImpliesLogged|EdgeFlight|InlineCommits|SequencedTwice' ./internal/wal ./internal/store ./internal/dc ./internal/edge ./internal/transport ./internal/transport/tcp

vet:
	$(GO) vet ./...

check: build vet test test-race

# The continuous-integration gate: static checks, racy packages under the
# race detector, then everything else, then one pass of each RGA
# microbenchmark (so they cannot rot), then 15 s of fuzzing the WAL's replay
# (torn tails, corrupt records, foreign files) and 15 s of fuzzing the wire
# codec's decoder (hostile counts, truncated bodies, retired tags).
ci: vet test-race build test
	$(GO) test -run='^$$' -bench RGA -benchtime 1x ./internal/crdt
	$(GO) test -run='^$$' -fuzz=FuzzReplay -fuzztime=15s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMessage -fuzztime=15s ./internal/wire

# Read-path microbenchmarks: materialisation cache on/off over journal
# depths, parallel readers over shards, incremental advancing-cut reads.
bench-store:
	$(GO) test -run xxx -bench BenchmarkStore -benchmem ./internal/store

# RGA kernel microbenchmarks: a typing burst on a fork, a mid-document
# insert, and the store's cache refresh (fork, four remote inserts, seal),
# each at several document sizes.
bench-crdt:
	$(GO) test -run xxx -bench RGA -benchmem ./internal/crdt

bench-vclock:
	$(GO) test -run xxx -bench BenchmarkVector -benchmem ./internal/vclock

# Repository-level figure benchmarks (reduced configurations).
bench-fig4:
	$(GO) test -run xxx -bench BenchmarkFig4 -benchtime 3x .

# Instrumentation overhead on the cached read path: obs=false vs obs=true
# must stay within a few percent of each other (see DESIGN.md
# § Observability).
bench-obs:
	$(GO) test -run xxx -bench BenchmarkStoreReadObs -benchmem ./internal/store

# The performance ledger: one end-to-end benchmark over the real TCP mesh
# with a per-layer budget (benchmark/README.md). bench runs the whole suite
# and writes benchmark/out/suite.json; bench-compare holds one recorded suite
# against another: make bench-compare OLD=old.json NEW=benchmark/out/suite.json
bench:
	$(GO) run ./benchmark

bench-compare:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)
