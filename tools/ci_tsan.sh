#!/bin/sh
# CI-style ThreadSanitizer gate for the concurrency-sensitive pieces: the
# persistent thread pool, the ParallelFor chunk merge, the parallel
# screening pipeline, the intra-join chunked scans (join_threads, incl.
# nesting under pipeline_threads), the deferred segment-matching farm
# (matching_threads; SegmentMatchFarm + the oracle-differential suite),
# the exact scans against their traced reference (scan_differential_test
# runs Ex-MinMax and Ex-Baseline chunked and farmed on a 4-worker pool),
# the shared encoding cache (concurrent build dedup, shared-lock hit
# path, eviction, Clear), and the serving subsystem (sharded catalog
# upsert/remove/snapshot churn, top-k queries against a churning catalog,
# concurrent top-k walks reading the same entries' MinMax artifacts,
# live-session staleness, and the server's bounded queue + admission +
# shutdown paths — service_stress_test is written specifically for this
# gate), plus the prescreen signature layer (concurrent sketch builds in
# signature_test, and prescreen_test's IndexTracksCatalogUnderConcurrent-
# Churn, which probes each shard's signature index under its shard lock
# while writers churn the same shard's entries and sketches, and
# bulk_load_test's SurvivesConcurrentChurnAndQueries, where a BulkLoad's
# per-shard installs race upserts, removes and probes, and its
# ConcurrentBulkLoadsKeepPerIdSinkOrder, where two BulkLoads' per-shard
# pool-task installs of overlapping ids race single upserts and readers
# while a sink records each id's install order), lazy_artifacts_test
# (eight threads first-touch one entry and must agree on one published
# pointer, and refiners publish artifacts while a writer replaces the
# entries they pinned), the EDF request queue
# (request_queue_test's notify-outside-lock producer/consumer stress is
# written for this gate), the
# versioned result cache (result_cache_test's churn differential: readers
# race an upserting writer through the cache), and the network front end
# (net_test's loopback suites run the epoll reactor, the worker-thread
# response encodes and the connection teardown under TSAN), and the
# evolution subsystem (evolve_stress_test: a TopKMaintainer refreshing
# standing queries races catalog churn writers, top-k readers and a
# trigger subscriber, with exactly-once mutation-record accounting), and
# the persistent store (persist_crash_test: concurrent upsert/remove
# writers stream through the durable-log sink inside the shard critical
# sections while the LogWriter serializes appends on its own mutex, then
# the recovered state must match the live catalog byte for byte, and
# persist_test: log-tail refreshes with unchanged content copy the
# restored entries' sketch rows on pool threads, and persist_fsck_test: the
# segment reader builds entries on pool threads and deep verify reports
# from them through one mutex, and its log-decode fuzz test, whose
# restores build the replayed communities on pool threads from the
# mapped log, and persist_test's ReplayInstallsTheTailsFinalState, whose
# final-state replay builds the surviving communities on pool threads and
# installs them with one pool task per shard).
# Configures a dedicated build tree with CSJ_ENABLE_TSAN=ON and runs the
# relevant test binaries under TSAN.
#
# Usage: tools/ci_tsan.sh [build-dir]   (default: build-tsan)
set -eu

build_dir="${1:-build-tsan}"

cmake -B "${build_dir}" -S . \
  -DCSJ_ENABLE_TSAN=ON \
  -DCSJ_BUILD_BENCHMARKS=OFF \
  -DCSJ_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j"$(nproc)" \
  --target thread_pool_test parallel_test join_threads_test pipeline_test \
           encoding_cache_test matching_differential_test \
           scan_differential_test \
           catalog_test bulk_load_test lazy_artifacts_test topk_service_test \
           service_stress_test signature_test prescreen_test \
           request_queue_test result_cache_test net_test evolve_stress_test \
           persist_crash_test persist_test persist_fsck_test

# halt_on_error: any race fails the gate immediately.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "${build_dir}" --output-on-failure -j 1 \
        -R 'ThreadPool|ParallelFor|ParallelJoin|ParallelPipeline|Pipeline|EncodingCache|JoinThreads|NestedJoinThreads|CostAwareScheduling|SegmentMatchFarm|MatchingDifferential|ScanDifferential|Catalog|BulkLoad|LazyArtifacts|LiveCoupleSession|TopKService|ServiceStress|Signature|Prescreen|RequestQueue|ServerEdf|ResultCache|NetWire|NetLoopback|EvolveStress|PersistCrash|PersistStore|PersistFsck|PersistLogFuzz'

echo "TSAN gate passed."
