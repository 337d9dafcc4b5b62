#!/bin/sh
# CI-style Address+UndefinedBehaviorSanitizer gate. Where the TSan gate
# (tools/ci_tsan.sh) hunts races, this one hunts lifetime bugs in the
# paths that hand out shared buffers: the encoding cache's entry
# promotion/eviction (a join must keep its shared_ptr alive across
# eviction), the SoA verify windows' padded tail lanes, the per-chunk
# arenas of the intra-join parallel scans (join_threads_test), the
# segment-matching farm's swapped edge buffers (matching_differential_
# test), and the scan kernels' unaligned vector loads. Runs the full test
# suite — ASan is cheap enough for that, and the join methods are where
# the pointers live; that includes the matching oracle/differential,
# matching-property and epsilon-boundary suites, plus the serving
# subsystem's catalog/top-k/stress suites (copy-on-write entries pinned
# across Remove, result buffers outliving catalog churn), the prescreen
# signature suites (packed sketch columns swapped on removal, candidate
# lists holding (id, version) pairs across fallback reruns), the bulk
# ingestion suite (frozen community buffers moved through the waves and
# installed under per-shard locks, each shard's sketch store copying its
# batch's sketches before a duplicate id's later entry can release them,
# thread-local sketch scratch), the result
# cache (shared rankings handed out across invalidation/eviction), and
# the wire/net suites (FrameDecoder's lazily-compacted buffer, the
# reactor's connection teardown racing in-flight worker responses), and
# the evolution suites (drift snapshots frozen and re-installed across
# quiesces, maintained rankings and trigger before/after buffers handed
# to subscribers, live sessions rebuilt over pinned anchor entries), and
# the persistence suites (persist_test pins copy-on-write views over an
# munmap'd segment — the keepalive must hold the mapping alive; the
# crash and fsck suites walk mapped columns with recomputed offsets,
# where every off-by-one is an out-of-bounds read ASan can see), and the
# top-k walk's reach filter (dimension_reach_test, net_test's hostile
# top-k frames: core/dimension_reach.cc indexes per-dimension bitmaps and
# interval lists by counters read from catalog entries and from wire
# frames, up to UINT32_MAX, so a word index past a bitmap's end is a
# heap overflow ASan reports), and the prescreen sweep's packed row loads
# (core/signature.cc ends each breakpoint row with a block overlapping
# its predecessor; a block read past the last row would be an overflow
# of the pack's table), and the mapped mutation log (persist_fsck_test's
# log-decode fuzz test cuts and flips the log; replay copies counters out
# of the mapping at unaligned offsets, and a read past a cut file's end
# would fault), and the CRC32C known-answer test (the dispatched path
# at every start alignment and length up to 300 bytes).
#
# The build runs one compile per CPU.
#
# Usage: tools/ci_asan.sh [build-dir]   (default: build-asan)
set -eu

build_dir="${1:-build-asan}"

cmake -B "${build_dir}" -S . \
  -DCSJ_ENABLE_ASAN=ON \
  -DCSJ_BUILD_BENCHMARKS=OFF \
  -DCSJ_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j"$(nproc)"

# halt_on_error: the first bad access fails the gate; detect_leaks catches
# cache entries that outlive their last owner.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "${build_dir}" --output-on-failure -j 1

echo "ASAN gate passed."
