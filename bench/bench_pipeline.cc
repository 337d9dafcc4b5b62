// Extension experiment: quantifies the paper §3's motivation for having
// BOTH approximate and exact methods — "the time-consuming exact method
// uses the results of fast approximate method as input to alleviate its
// total execution overhead."
//
// Part 1 — a pivot brand is compared against a catalog of candidate
// communities, three ways:
//   exact-everything:  Ex-MinMax on every candidate;
//   screen+refine:     Ap-SuperEGO screen (the fastest method, Tables 3/5),
//                      Ex-MinMax only on survivors;
//   bound+screen+refine: additionally discard candidates whose reach
//                      bound (the pivot's DimensionReach, the top-k
//                      walk's bound) cannot reach the threshold.
// All three must produce the same set of above-threshold communities.
// The JSON's ablation object carries the bound arm's bound_pruned and
// screens, so a bound that stops pruning shows up there.
//
// Part 2 — cross-couple parallelism AND encoding-cache reuse:
// ScreenAndRefineAllPairs over the catalog, first WITHOUT a cache at one
// thread (the reference arm), then with ONE process-wide EncodingCache
// shared by a timed warmup run and by every pipeline_threads setting in
// --pipeline_threads. Every run must produce a byte-identical report
// (entry order, indices, names, similarity bits — cache/timing totals
// excluded); the wall-clock ratio against the no-cache arm is the
// speedup, and each point reports its cache hit rate (the post-warmup
// sweep should sit at ~100%). Each thread setting runs twice and keeps
// the faster rep; per-phase (screen/refine) wall times ride along, and a
// "scaling_ok" flag asserts threads=4 is not slower than threads=1
// (within a 10% noise margin) so a cross-couple scaling regression shows
// up in BENCH_pipeline.json instead of staying buried.
//
// Part 3 — intra-join parallelism on ONE large couple (the shape the
// paper's Table 11 scalability study stresses, where cross-couple
// fan-out has nothing to fan out): Ex-MinMax at every --join_threads
// setting vs the serial run, asserting byte-identical results (pairs,
// similarity bits, event counters) and emitting "join_scaling_ok".
//
// Part 4 — deferred segment matching on the same couple: Ex-MinMax at
// every --matching_threads setting vs the serial inline-flush run (again
// byte-identical by contract, gated by "matching_scaling_ok"). Every
// timed point also reports the wall-seconds spent INSIDE the one-to-one
// matcher (JoinStats::matching_seconds), so the JSON separates "the
// matcher got faster" from "the scan got faster".
//
// --json writes the whole run as machine-readable JSON, stamped with
// --git_sha/--build_type.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/encoding_cache.h"
#include "core/method.h"
#include "core/similarity.h"
#include "data/community_sampler.h"
#include "data/generator.h"
#include "pipeline/screening.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

std::vector<uint32_t> ParseThreadList(const std::string& list) {
  std::vector<uint32_t> values;
  size_t start = 0;
  while (start < list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string token = list.substr(start, comma - start);
    start = comma + 1;
    if (!token.empty()) {
      values.push_back(static_cast<uint32_t>(std::stoul(token)));
    }
  }
  if (values.empty()) values.push_back(1);
  return values;
}

/// Bit-exact report equality on everything the pipeline guarantees to be
/// deterministic (NOT the timing fields).
bool ReportsIdentical(const csj::pipeline::PipelineReport& x,
                      const csj::pipeline::PipelineReport& y) {
  if (x.entries.size() != y.entries.size() || x.screened != y.screened ||
      x.refined != y.refined || x.inadmissible != y.inadmissible ||
      x.bound_pruned != y.bound_pruned) {
    return false;
  }
  for (size_t i = 0; i < x.entries.size(); ++i) {
    const auto& ex = x.entries[i];
    const auto& ey = y.entries[i];
    if (ex.candidate_index != ey.candidate_index ||
        ex.candidate_name != ey.candidate_name || ex.refined != ey.refined ||
        std::memcmp(&ex.screened_similarity, &ey.screened_similarity,
                    sizeof(double)) != 0 ||
        std::memcmp(&ex.refined_similarity, &ey.refined_similarity,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Bit-exact JoinResult equality: pairs, similarity bits and every event
/// counter (timing excluded) — what the intra-join deterministic-merge
/// contract promises.
bool JoinResultsIdentical(const csj::JoinResult& x, const csj::JoinResult& y) {
  const double sx = x.Similarity();
  const double sy = y.Similarity();
  return x.pairs == y.pairs && x.size_b == y.size_b &&
         std::memcmp(&sx, &sy, sizeof(double)) == 0 &&
         x.stats.min_prunes == y.stats.min_prunes &&
         x.stats.max_prunes == y.stats.max_prunes &&
         x.stats.no_overlaps == y.stats.no_overlaps &&
         x.stats.no_matches == y.stats.no_matches &&
         x.stats.matches == y.stats.matches &&
         x.stats.dimension_compares == y.stats.dimension_compares &&
         x.stats.candidate_pairs == y.stats.candidate_pairs &&
         x.stats.csf_flushes == y.stats.csf_flushes;
}

/// Scaling gate: the `high` thread setting must not be slower than the
/// `low` one beyond a 10% noise margin. Vacuously true when either
/// setting was not swept.
bool ScalingOk(double low_seconds, double high_seconds) {
  if (low_seconds <= 0.0 || high_seconds <= 0.0) return true;
  return high_seconds <= low_seconds * 1.10;
}

}  // namespace

int main(int argc, char** argv) {
  csj::util::Flags flags;
  flags.Define("size", "4000", "users per community");
  flags.Define("candidates", "24", "catalog size");
  flags.Define("threshold", "0.15", "interesting-similarity threshold");
  flags.Define("seed", "2024", "dataset seed");
  flags.Define("pipeline_threads", "1,2,4,8",
               "comma list of pipeline_threads settings for the all-pairs "
               "sweep");
  flags.Define("allpairs", "12",
               "communities in the all-pairs sweep (0 disables part 2)");
  flags.Define("join_threads", "1,2,4,8",
               "comma list of join_threads settings for the single-couple "
               "sweep (empty disables part 3)");
  flags.Define("matching_threads", "1,2,4,8",
               "comma list of matching_threads settings for the deferred "
               "segment-matching sweep on the same couple");
  flags.Define("json", "", "write the results as JSON to this path");
  flags.Define("git_sha", "", "source revision stamped into the JSON");
  flags.Define("build_type", "", "CMake build type stamped into the JSON");
  if (!flags.Parse(argc, argv)) return 1;
  const auto size = static_cast<uint32_t>(flags.GetInt("size"));
  const auto num_candidates = static_cast<uint32_t>(flags.GetInt("candidates"));
  const double threshold = flags.GetDouble("threshold");
  csj::util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));

  // Pivot plus a catalog in which only a minority clears the threshold —
  // the realistic broadcast-recommendation shape.
  csj::data::VkLikeGenerator pivot_gen(csj::data::Category::kSport);
  const csj::Community pivot =
      csj::data::MakeCommunity(pivot_gen, size, rng, "pivot");

  std::vector<csj::Community> catalog;
  catalog.reserve(num_candidates);
  for (uint32_t i = 0; i < num_candidates; ++i) {
    const auto category = static_cast<csj::data::Category>(
        i % csj::data::kNumCategories);
    csj::data::VkLikeGenerator gen(category);
    csj::data::CoupleSpec spec;
    spec.size_b = size;
    spec.eps = 1;
    // A quarter of the catalog is genuinely similar; the rest is noise.
    spec.target_similarity = (i % 4 == 0) ? 0.18 + 0.02 * (i % 5) : 0.02;
    catalog.push_back(csj::data::PlantCommunityAgainst(pivot, gen, spec, rng));
    catalog.back().set_name("cand_" + std::to_string(i));
  }
  std::vector<const csj::Community*> candidates;
  for (const csj::Community& c : catalog) candidates.push_back(&c);

  csj::JoinOptions join;
  join.eps = 1;

  // Arm 1: exact everywhere.
  csj::util::Timer exact_timer;
  std::set<std::string> exact_winners;
  for (const csj::Community* c : candidates) {
    const auto result =
        csj::ComputeSimilarityAutoOrder(csj::Method::kExMinMax, *c, pivot,
                                        join);
    if (result.has_value() && result->Similarity() >= threshold) {
      exact_winners.insert(c->name());
    }
  }
  const double exact_seconds = exact_timer.Seconds();

  // Arms 2 and 3: the pipeline without and with the upper-bound prune.
  auto run_pipeline = [&](bool use_bound) {
    csj::pipeline::PipelineOptions options;
    options.screen_method = csj::Method::kApSuperEgo;
    options.refine_method = csj::Method::kExMinMax;
    options.screen_threshold = threshold;
    options.use_upper_bound_prune = use_bound;
    options.join = join;
    options.join.superego_norm_max = csj::data::kVkMaxCounter;
    return ScreenAndRefine(pivot, candidates, options);
  };
  const csj::pipeline::PipelineReport screen_report = run_pipeline(false);
  const csj::pipeline::PipelineReport bound_report = run_pipeline(true);

  auto winners_of = [&](const csj::pipeline::PipelineReport& report) {
    std::set<std::string> winners;
    for (const auto& entry : report.entries) {
      if (entry.refined && entry.refined_similarity >= threshold) {
        winners.insert(entry.candidate_name);
      }
    }
    return winners;
  };

  std::printf(
      "Pipeline ablation: pivot vs %u candidates of %s users each, "
      "threshold %s\n\n",
      num_candidates, csj::util::WithCommas(size).c_str(),
      csj::util::Percent(threshold).c_str());
  std::printf("  exact-everything:      %8s   (%u exact joins)\n",
              csj::util::SecondsCell(exact_seconds).c_str(), num_candidates);
  std::printf("  screen + refine:       %8s   (%u screens, %u exact joins)\n",
              csj::util::SecondsCell(screen_report.total_seconds).c_str(),
              screen_report.screened, screen_report.refined);
  std::printf(
      "  bound + screen+refine: %8s   (%u bound-pruned, %u screens, %u "
      "exact joins)\n",
      csj::util::SecondsCell(bound_report.total_seconds).c_str(),
      bound_report.bound_pruned, bound_report.screened,
      bound_report.refined);

  const bool agree = winners_of(screen_report) == exact_winners &&
                     winners_of(bound_report) == exact_winners;
  std::printf(
      "\nAll three arms report the same %zu above-threshold communities: "
      "%s\n",
      exact_winners.size(), agree ? "YES" : "NO (investigate!)");

  // ---- Part 2: encoding-cache reuse + cross-couple parallelism ----------
  const auto allpairs =
      std::min(static_cast<uint32_t>(flags.GetInt("allpairs")),
               num_candidates);
  const std::vector<uint32_t> thread_settings =
      ParseThreadList(flags.GetString("pipeline_threads"));

  struct SweepPoint {
    uint32_t threads = 0;
    double seconds = 0.0;   ///< best of the reps
    double screen_wall_seconds = 0.0;  ///< phase walls of the best rep
    double refine_wall_seconds = 0.0;
    double matching_seconds = 0.0;  ///< matcher thread-seconds, best rep
    double speedup = 1.0;  ///< vs the no-cache single-thread arm
    bool identical = true;  ///< across ALL reps
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
  };
  const auto hit_rate = [](uint64_t hits, uint64_t misses) {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  };
  std::vector<SweepPoint> sweep;
  bool all_identical = true;
  bool scaling_ok = true;
  double nocache_seconds = 0.0;
  SweepPoint warmup;

  if (allpairs >= 2) {
    std::vector<const csj::Community*> communities(
        candidates.begin(), candidates.begin() + allpairs);
    csj::pipeline::PipelineOptions options;
    options.screen_method = csj::Method::kApSuperEgo;
    options.refine_method = csj::Method::kExMinMax;
    // Refine every couple: the catalog's planted similarity is against
    // the pivot, so pairwise similarities sit below the ablation
    // threshold and a real threshold would leave the (expensive,
    // scheduling-interesting) refine phase idle.
    options.screen_threshold = 0.0;
    options.join = join;
    options.join.superego_norm_max = csj::data::kVkMaxCounter;

    std::printf(
        "\nAll-pairs screening (%u communities, %u couples), cache + "
        "pipeline_threads:\n",
        allpairs, allpairs * (allpairs - 1) / 2);

    // Reference arm: no cache, one thread — every couple re-encodes both
    // of its sides from scratch, as the pre-cache pipeline did.
    csj::pipeline::PipelineReport reference;
    {
      options.pipeline_threads = 1;
      options.join.cache = nullptr;
      csj::util::Timer timer;
      reference = ScreenAndRefineAllPairs(communities, options);
      nocache_seconds = timer.Seconds();
      std::printf("  no cache, threads  1: %8s  (reference)\n",
                  csj::util::SecondsCell(nocache_seconds).c_str());
    }

    // ONE process-wide cache serves the warmup and every thread setting:
    // reconfiguring the sweep must not throw the encodings away, that is
    // the entire point of content-keyed sharing.
    csj::EncodingCache cache;
    options.join.cache = &cache;

    // Timed warmup: pays every build once; later runs only look up.
    {
      options.pipeline_threads = 1;
      csj::util::Timer timer;
      const csj::pipeline::PipelineReport report =
          ScreenAndRefineAllPairs(communities, options);
      warmup.threads = 1;
      warmup.seconds = timer.Seconds();
      warmup.speedup = nocache_seconds / warmup.seconds;
      warmup.identical = ReportsIdentical(reference, report);
      warmup.cache_hits = report.cache_hits;
      warmup.cache_misses = report.cache_misses;
      all_identical = all_identical && warmup.identical;
      std::printf(
          "  warmup,   threads  1: %8s  speedup %.2fx  hit rate %5.1f%%  "
          "report %s\n",
          csj::util::SecondsCell(warmup.seconds).c_str(), warmup.speedup,
          100.0 * hit_rate(warmup.cache_hits, warmup.cache_misses),
          warmup.identical ? "identical" : "DIVERGED (investigate!)");
    }

    for (const uint32_t threads : thread_settings) {
      options.pipeline_threads = threads;
      // Best of two reps: the scaling flag compares thread settings
      // against each other, and a single noisy rep would turn scheduler
      // jitter into a false regression alarm.
      SweepPoint point;
      point.threads = threads;
      for (int rep = 0; rep < 2; ++rep) {
        csj::util::Timer timer;
        const csj::pipeline::PipelineReport report =
            ScreenAndRefineAllPairs(communities, options);
        const double seconds = timer.Seconds();
        if (rep == 0 || seconds < point.seconds) {
          point.seconds = seconds;
          point.screen_wall_seconds = report.screen_wall_seconds;
          point.refine_wall_seconds = report.refine_wall_seconds;
          point.matching_seconds = report.matching_seconds;
        }
        point.identical =
            (rep == 0 || point.identical) && ReportsIdentical(reference,
                                                              report);
        point.cache_hits = report.cache_hits;
        point.cache_misses = report.cache_misses;
      }
      point.speedup = nocache_seconds / point.seconds;
      all_identical = all_identical && point.identical;
      std::printf(
          "  cached,   threads %2u: %8s  (screen %s, refine %s)  speedup "
          "%.2fx  hit rate %5.1f%%  report %s\n",
          point.threads, csj::util::SecondsCell(point.seconds).c_str(),
          csj::util::SecondsCell(point.screen_wall_seconds).c_str(),
          csj::util::SecondsCell(point.refine_wall_seconds).c_str(),
          point.speedup,
          100.0 * hit_rate(point.cache_hits, point.cache_misses),
          point.identical ? "identical" : "DIVERGED (investigate!)");
      sweep.push_back(point);
    }

    uint64_t sweep_hits = 0;
    uint64_t sweep_misses = 0;
    for (const SweepPoint& point : sweep) {
      sweep_hits += point.cache_hits;
      sweep_misses += point.cache_misses;
    }
    const csj::EncodingCache::Stats cache_stats = cache.GetStats();
    std::printf(
        "  cache: %s entries, %.1f MiB resident; sweep-phase hit rate "
        "%5.1f%%\n",
        csj::util::WithCommas(cache_stats.entries).c_str(),
        static_cast<double>(cache_stats.bytes) / (1024.0 * 1024.0),
        100.0 * hit_rate(sweep_hits, sweep_misses));

    // The regression gate: 4 pipeline threads must not be slower than 1.
    double seconds_at_1 = 0.0;
    double seconds_at_4 = 0.0;
    for (const SweepPoint& point : sweep) {
      if (point.threads == 1) seconds_at_1 = point.seconds;
      if (point.threads == 4) seconds_at_4 = point.seconds;
    }
    scaling_ok = ScalingOk(seconds_at_1, seconds_at_4);
    std::printf("  scaling threads 1 -> 4: %s\n",
                scaling_ok ? "OK" : "REGRESSED (investigate!)");
  }

  // ---- Part 3: intra-join parallelism on one large couple --------------
  struct JoinSweepPoint {
    uint32_t join_threads = 0;
    double seconds = 0.0;  ///< best of the reps
    double speedup = 1.0;  ///< vs the serial arm
    bool identical = true;
  };
  const std::vector<uint32_t> join_thread_settings =
      ParseThreadList(flags.GetString("join_threads"));
  std::vector<JoinSweepPoint> join_sweep;
  double join_serial_seconds = 0.0;
  bool join_scaling_ok = true;

  {
    // One couple, no pipeline: the only parallelism available is inside
    // the join itself. The pivot and its most similar planted candidate
    // give an equal-sized, match-rich couple (candidate edges and CSF
    // segments actually flow through the merge).
    const csj::Community& big_b = catalog.front();
    const csj::Community& big_a = pivot;
    csj::JoinOptions join_options = join;
    std::printf("\nSingle-couple Ex-MinMax (%s x %s users), join_threads:\n",
                csj::util::WithCommas(big_b.size()).c_str(),
                csj::util::WithCommas(big_a.size()).c_str());

    join_options.join_threads = 1;
    csj::JoinResult serial;
    for (int rep = 0; rep < 2; ++rep) {
      csj::util::Timer timer;
      serial = RunMethod(csj::Method::kExMinMax, big_b, big_a, join_options);
      const double seconds = timer.Seconds();
      if (rep == 0 || seconds < join_serial_seconds) {
        join_serial_seconds = seconds;
      }
    }
    std::printf("  join_threads  1: %8s  (reference, %s pairs)\n",
                csj::util::SecondsCell(join_serial_seconds).c_str(),
                csj::util::WithCommas(serial.pairs.size()).c_str());

    double seconds_at_4 = 0.0;
    for (const uint32_t join_threads : join_thread_settings) {
      if (join_threads <= 1) continue;
      join_options.join_threads = join_threads;
      JoinSweepPoint point;
      point.join_threads = join_threads;
      for (int rep = 0; rep < 2; ++rep) {
        csj::util::Timer timer;
        const csj::JoinResult result =
            RunMethod(csj::Method::kExMinMax, big_b, big_a, join_options);
        const double seconds = timer.Seconds();
        if (rep == 0 || seconds < point.seconds) point.seconds = seconds;
        point.identical = (rep == 0 || point.identical) &&
                          JoinResultsIdentical(serial, result);
      }
      point.speedup = join_serial_seconds / point.seconds;
      if (point.join_threads == 4) seconds_at_4 = point.seconds;
      all_identical = all_identical && point.identical;
      std::printf("  join_threads %2u: %8s  speedup %.2fx  result %s\n",
                  point.join_threads,
                  csj::util::SecondsCell(point.seconds).c_str(),
                  point.speedup,
                  point.identical ? "identical" : "DIVERGED (investigate!)");
      join_sweep.push_back(point);
    }
    join_scaling_ok = ScalingOk(join_serial_seconds, seconds_at_4);
    std::printf("  scaling join_threads 1 -> 4: %s\n",
                join_scaling_ok ? "OK" : "REGRESSED (investigate!)");
  }

  // ---- Part 4: deferred segment matching on the same couple ------------
  struct MatchSweepPoint {
    uint32_t matching_threads = 0;
    double seconds = 0.0;           ///< best of the reps
    double matching_seconds = 0.0;  ///< matcher wall of the best rep
    double speedup = 1.0;           ///< vs the inline-flush serial arm
    bool identical = true;
  };
  const std::vector<uint32_t> matching_thread_settings =
      ParseThreadList(flags.GetString("matching_threads"));
  std::vector<MatchSweepPoint> matching_sweep;
  double matching_serial_seconds = 0.0;
  double serial_matching_seconds = 0.0;  ///< matcher share of the serial arm
  bool matching_scaling_ok = true;

  {
    const csj::Community& big_b = catalog.front();
    const csj::Community& big_a = pivot;
    csj::JoinOptions join_options = join;
    std::printf(
        "\nSingle-couple Ex-MinMax deferred matching, matching_threads:\n");

    // Best of THREE here (the other sweeps use two): the matcher is a
    // small share of this couple's join, so the gate is comparing two
    // ~10ms totals whose scheduler jitter on a loaded box exceeds the
    // farm's real cost; one extra rep cuts the false-alarm rate hard.
    join_options.matching_threads = 1;
    csj::JoinResult serial;
    for (int rep = 0; rep < 3; ++rep) {
      csj::util::Timer timer;
      serial = RunMethod(csj::Method::kExMinMax, big_b, big_a, join_options);
      const double seconds = timer.Seconds();
      if (rep == 0 || seconds < matching_serial_seconds) {
        matching_serial_seconds = seconds;
        serial_matching_seconds = serial.stats.matching_seconds;
      }
    }
    std::printf(
        "  matching_threads  1: %8s  (matcher %s, %s segments, reference)\n",
        csj::util::SecondsCell(matching_serial_seconds).c_str(),
        csj::util::SecondsCell(serial_matching_seconds).c_str(),
        csj::util::WithCommas(serial.stats.csf_flushes).c_str());

    double seconds_at_4 = 0.0;
    for (const uint32_t matching_threads : matching_thread_settings) {
      if (matching_threads <= 1) continue;
      join_options.matching_threads = matching_threads;
      MatchSweepPoint point;
      point.matching_threads = matching_threads;
      for (int rep = 0; rep < 3; ++rep) {
        csj::util::Timer timer;
        const csj::JoinResult result =
            RunMethod(csj::Method::kExMinMax, big_b, big_a, join_options);
        const double seconds = timer.Seconds();
        if (rep == 0 || seconds < point.seconds) {
          point.seconds = seconds;
          point.matching_seconds = result.stats.matching_seconds;
        }
        point.identical = (rep == 0 || point.identical) &&
                          JoinResultsIdentical(serial, result);
      }
      point.speedup = matching_serial_seconds / point.seconds;
      if (point.matching_threads == 4) seconds_at_4 = point.seconds;
      all_identical = all_identical && point.identical;
      std::printf(
          "  matching_threads %2u: %8s  (matcher %s)  speedup %.2fx  result "
          "%s\n",
          point.matching_threads,
          csj::util::SecondsCell(point.seconds).c_str(),
          csj::util::SecondsCell(point.matching_seconds).c_str(),
          point.speedup,
          point.identical ? "identical" : "DIVERGED (investigate!)");
      matching_sweep.push_back(point);
    }
    matching_scaling_ok = ScalingOk(matching_serial_seconds, seconds_at_4);
    std::printf("  scaling matching_threads 1 -> 4: %s\n",
                matching_scaling_ok ? "OK" : "REGRESSED (investigate!)");
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    csj::util::JsonWriter json;
    json.BeginObject();
    json.Key("benchmark");
    json.String("bench_pipeline");
    json.Key("git_sha");
    json.String(flags.GetString("git_sha"));
    json.Key("build_type");
    json.String(flags.GetString("build_type"));
    // Host parallelism, so scaling numbers are interpretable offline: a
    // thread-count sweep on a 1-core container is a determinism check,
    // not a speedup measurement.
    json.Key("host_cores");
    json.Uint(std::thread::hardware_concurrency());
    json.Key("host_nproc_online");
    json.Int(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    json.Key("size");
    json.Uint(size);
    json.Key("candidates");
    json.Uint(num_candidates);
    json.Key("threshold");
    json.Double(threshold);
    json.Key("ablation");
    json.BeginObject();
    json.Key("exact_everything_seconds");
    json.Double(exact_seconds);
    json.Key("screen_refine_seconds");
    json.Double(screen_report.total_seconds);
    json.Key("bound_screen_refine_seconds");
    json.Double(bound_report.total_seconds);
    json.Key("bound_pruned");
    json.Uint(bound_report.bound_pruned);
    json.Key("screens");
    json.Uint(bound_report.screened);
    json.Key("winners");
    json.Uint(exact_winners.size());
    json.Key("arms_agree");
    json.Bool(agree);
    json.EndObject();
    json.Key("allpairs");
    json.BeginObject();
    json.Key("communities");
    json.Uint(allpairs);
    json.Key("nocache_seconds");
    json.Double(nocache_seconds);
    const auto sweep_point_json = [&](const SweepPoint& point) {
      json.BeginObject();
      json.Key("pipeline_threads");
      json.Uint(point.threads);
      json.Key("seconds");
      json.Double(point.seconds);
      json.Key("screen_wall_seconds");
      json.Double(point.screen_wall_seconds);
      json.Key("refine_wall_seconds");
      json.Double(point.refine_wall_seconds);
      json.Key("refine_matching_seconds");
      json.Double(point.matching_seconds);
      json.Key("speedup_vs_nocache");
      json.Double(point.speedup);
      json.Key("report_identical");
      json.Bool(point.identical);
      json.Key("cache_hits");
      json.Uint(point.cache_hits);
      json.Key("cache_misses");
      json.Uint(point.cache_misses);
      json.Key("cache_hit_rate");
      json.Double(hit_rate(point.cache_hits, point.cache_misses));
      json.EndObject();
    };
    json.Key("warmup");
    sweep_point_json(warmup);
    json.Key("sweep");
    json.BeginArray();
    uint64_t sweep_hits = 0;
    uint64_t sweep_misses = 0;
    for (const SweepPoint& point : sweep) {
      sweep_point_json(point);
      sweep_hits += point.cache_hits;
      sweep_misses += point.cache_misses;
    }
    json.EndArray();
    // The acceptance signal: once warm, the sweep should essentially
    // never rebuild an encoding.
    json.Key("sweep_phase_hit_rate");
    json.Double(hit_rate(sweep_hits, sweep_misses));
    // The regression gate the perf-smoke CI greps for.
    json.Key("scaling_ok");
    json.Bool(scaling_ok);
    json.EndObject();
    json.Key("single_couple");
    json.BeginObject();
    json.Key("method");
    json.String("Ex-MinMax");
    json.Key("serial_seconds");
    json.Double(join_serial_seconds);
    json.Key("sweep");
    json.BeginArray();
    for (const JoinSweepPoint& point : join_sweep) {
      json.BeginObject();
      json.Key("join_threads");
      json.Uint(point.join_threads);
      json.Key("seconds");
      json.Double(point.seconds);
      json.Key("speedup_vs_serial");
      json.Double(point.speedup);
      json.Key("report_identical");
      json.Bool(point.identical);
      json.EndObject();
    }
    json.EndArray();
    json.Key("join_scaling_ok");
    json.Bool(join_scaling_ok);
    json.EndObject();
    json.Key("deferred_matching");
    json.BeginObject();
    json.Key("method");
    json.String("Ex-MinMax");
    json.Key("serial_seconds");
    json.Double(matching_serial_seconds);
    json.Key("serial_matching_seconds");
    json.Double(serial_matching_seconds);
    json.Key("sweep");
    json.BeginArray();
    for (const MatchSweepPoint& point : matching_sweep) {
      json.BeginObject();
      json.Key("matching_threads");
      json.Uint(point.matching_threads);
      json.Key("seconds");
      json.Double(point.seconds);
      json.Key("matching_seconds");
      json.Double(point.matching_seconds);
      json.Key("speedup_vs_serial");
      json.Double(point.speedup);
      json.Key("report_identical");
      json.Bool(point.identical);
      json.EndObject();
    }
    json.EndArray();
    json.Key("matching_scaling_ok");
    json.Bool(matching_scaling_ok);
    json.EndObject();
    json.EndObject();
    const std::string text = json.Take();
    if (std::FILE* file = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(file, "%s\n", text.c_str());
      std::fclose(file);
      std::printf("\nwrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }

  return agree && all_identical ? 0 : 1;
}
