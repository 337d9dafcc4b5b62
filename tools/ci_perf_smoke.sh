#!/bin/sh
# Release performance smoke: the two gates that no ctest case and no
# perfbench workload holds.
#
# 1. Pipeline scaling. A small bench_pipeline sweep at pipeline_threads
#    {1,4} (plus the single-couple join_threads and matching_threads
#    sweeps) FAILS when the JSON reports a scaling regression (threads=4
#    slower than threads=1 beyond the bench's 10% noise margin) or any
#    report-identity mismatch.
# 2. Warm restart. A first csj_serve process populates the 100k-entry
#    prescreen catalog, seals it into a store and logs the closed loop's
#    churn; a second process restores that store (segment map + log
#    replay) with --warm_restart. The populate wall time of the first
#    must be >= 5x the load wall time of the second (Store::Open, which
#    maps the segment and reads the log, plus the restore). The ratio is a
#    timing measurement on a shared box, so a miss is retried ONCE on a
#    fresh store before failing. csj_fsck then audits the store in deep
#    mode (recomputing digests, sketches and encodings from the mapped
#    payloads) and must exit clean.
#
# Usage: tools/ci_perf_smoke.sh [build-dir]   (default: build-perf)
set -eu

check_json() {
  json_file="$1"
  if [ ! -f "${json_file}" ]; then
    echo "error: ${json_file} not found" >&2
    exit 1
  fi
  # The writer emits compact JSON ('"key":false'); tolerate pretty-printed
  # files too ('"key": false') — a strict-space pattern silently never
  # matches and turns the gate into a no-op.
  fail=0
  if grep -Eq '"scaling_ok": ?false' "${json_file}"; then
    echo "FAIL: scaling_ok=false in ${json_file} (pipeline_threads=4 slower than 1)" >&2
    fail=1
  fi
  if grep -Eq '"join_scaling_ok": ?false' "${json_file}"; then
    echo "FAIL: join_scaling_ok=false in ${json_file} (join_threads=4 slower than serial)" >&2
    fail=1
  fi
  if grep -Eq '"matching_scaling_ok": ?false' "${json_file}"; then
    echo "FAIL: matching_scaling_ok=false in ${json_file} (matching_threads=4 slower than inline flush)" >&2
    fail=1
  fi
  if grep -Eq '"report_identical": ?false' "${json_file}"; then
    echo "FAIL: report_identical=false in ${json_file} (a parallel run diverged from serial)" >&2
    fail=1
  fi
  if grep -Eq '"arms_agree": ?false' "${json_file}"; then
    echo "FAIL: arms_agree=false in ${json_file} (screen+refine missed an exact winner)" >&2
    fail=1
  fi
  if [ "${fail}" -ne 0 ]; then
    exit 1
  fi
  echo "perf smoke check passed: ${json_file}"
}

build_dir="${1:-build-perf}"

cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCSJ_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j"$(nproc)" --target bench_pipeline csj_serve csj_fsck

git_sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
json_out="${build_dir}/perf_smoke.json"

# Small enough to finish in seconds, large enough that the parallel paths
# genuinely run (multiple couples per worker, multiple chunks per join).
"${build_dir}/bench/bench_pipeline" \
  --size=1200 --candidates=10 --allpairs=8 \
  --pipeline_threads=1,4 --join_threads=1,4 --matching_threads=1,4 \
  --json="${json_out}" \
  --git_sha="${git_sha}" --build_type=Release

check_json "${json_out}"

# persist_smoke: populate in one process, warm-restart in another.
persist_dir="${build_dir}/persist_smoke_store"
populate_json="${build_dir}/persist_smoke_populate.json"
restart_json="${build_dir}/persist_smoke_restart.json"

serve_persist() {
  # $1 = JSON output; any further arguments go to csj_serve. A failed run
  # (serve_ok false, store error, a warm restart on a store that holds no
  # data) is a hard failure, never retried.
  serve_json="$1"
  shift
  if ! "${build_dir}/tools/csj_serve" \
      --catalog_size=100000 --size=40 --cluster=12 --plant_lo=0.5 \
      --plant_hi=0.8 --k=5 --requests=20 --clients=2 --workers=2 \
      --zipf=1.1 --upsert_fraction=0.05 --prescreen=true \
      --store_dir="${persist_dir}" --json="${serve_json}" \
      --git_sha="${git_sha}" --build_type=Release "$@"; then
    echo "FAIL: csj_serve failed writing ${serve_json}" >&2
    exit 1
  fi
}

json_number() {
  # The first value of key $1 in JSON file $2.
  grep -o "\"$1\":[^,}]*" "$2" | head -n 1 | cut -d: -f2
}

persist_ratio=0
run_persist_leg() {
  rm -rf "${persist_dir}"
  serve_persist "${populate_json}"
  serve_persist "${restart_json}" --warm_restart=true
  populate_s="$(json_number populate_seconds "${populate_json}")"
  load_s="$(json_number load_seconds "${restart_json}")"
  persist_ratio="$(awk -v p="${populate_s}" -v l="${load_s}" \
    'BEGIN { if (l > 0) printf "%.2f", p / l; else print 0 }')"
  echo "persist_smoke: populate ${populate_s} s / warm load ${load_s} s = ${persist_ratio}x (floor 5x)"
  awk -v r="${persist_ratio}" 'BEGIN { exit !(r >= 5) }'
}

persist_ok=1
if ! run_persist_leg; then
  echo "persist_smoke: warm load < 5x populate on first run, retrying once" >&2
  if ! run_persist_leg; then
    persist_ok=0
  fi
fi
if ! "${build_dir}/tools/csj_fsck" --dir="${persist_dir}" --deep=true; then
  echo "FAIL: csj_fsck found corruption in ${persist_dir}" >&2
  exit 1
fi
if [ "${persist_ok}" -ne 1 ]; then
  echo "FAIL: warm load < 5x populate on both runs (last ${persist_ratio}x)" >&2
  exit 1
fi
echo "persist smoke gate passed: ${restart_json}"
echo "perf smoke gate passed."
