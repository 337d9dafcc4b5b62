// csj_cli — command-line front end for the csjoin library.
//
//   csj_cli generate   --family vk --category Sport --size 10000
//                      --seed 7 --out sport.bin
//   csj_cli info       --file sport.bin
//   csj_cli similarity --b small.bin --a big.bin --method Ex-MinMax
//                      --eps 1 [--json] [--pairs 10]
//
// Community files may be .csv (SaveCommunityCsv layout) or the compact
// .bin format; the loader is chosen by extension.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/encoding_cache.h"
#include "core/method.h"
#include "core/similarity.h"
#include "data/categories.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/stats.h"
#include "pipeline/screening.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using csj::util::Flags;

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::optional<csj::Community> LoadAny(const std::string& path) {
  if (EndsWith(path, ".csv")) return csj::data::LoadCommunityCsv(path);
  return csj::data::LoadCommunityBinary(path);
}

bool SaveAny(const csj::Community& community, const std::string& path) {
  if (EndsWith(path, ".csv")) {
    return csj::data::SaveCommunityCsv(community, path);
  }
  return csj::data::SaveCommunityBinary(community, path);
}

int RunGenerate(int argc, char** argv) {
  Flags flags;
  flags.Define("family", "vk", "dataset family: vk | synthetic");
  flags.Define("category", "Entertainment",
               "home category (Table 1 spelling) for the vk family");
  flags.Define("size", "10000", "number of users");
  flags.Define("seed", "1", "generator seed");
  flags.Define("name", "", "community name (defaults to the category)");
  flags.Define("out", "community.bin", "output path (.bin or .csv)");
  if (!flags.Parse(argc, argv)) return 1;

  const std::string family = flags.GetString("family");
  const auto size = static_cast<uint32_t>(flags.GetInt("size"));
  csj::util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));

  csj::Community community(csj::data::kNumCategories);
  std::string name = flags.GetString("name");
  if (family == "vk") {
    const auto category = csj::data::ParseCategory(flags.GetString("category"));
    if (!category.has_value()) {
      std::fprintf(stderr, "unknown category '%s'\n",
                   flags.GetString("category").c_str());
      return 1;
    }
    csj::data::VkLikeGenerator generator(*category);
    if (name.empty()) name = csj::data::CategoryName(*category);
    community = MakeCommunity(generator, size, rng, name);
  } else if (family == "synthetic") {
    csj::data::UniformGenerator generator(csj::data::kNumCategories,
                                          csj::data::kSyntheticMaxCounter);
    if (name.empty()) name = "synthetic";
    community = MakeCommunity(generator, size, rng, name);
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 1;
  }

  const std::string out = flags.GetString("out");
  if (!SaveAny(community, out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s users (d = %u) to %s\n",
              csj::util::WithCommas(community.size()).c_str(), community.d(),
              out.c_str());
  return 0;
}

int RunInfo(int argc, char** argv) {
  Flags flags;
  flags.Define("file", "", "community file to inspect (.bin or .csv)");
  if (!flags.Parse(argc, argv)) return 1;
  const auto community = LoadAny(flags.GetString("file"));
  if (!community.has_value()) {
    std::fprintf(stderr, "failed to load %s\n",
                 flags.GetString("file").c_str());
    return 1;
  }
  std::printf("name:        %s\n", community->name().c_str());
  std::printf("users:       %s\n",
              csj::util::WithCommas(community->size()).c_str());
  std::printf("dimensions:  %u\n", community->d());
  std::printf("max counter: %s\n",
              csj::util::WithCommas(community->MaxCounter()).c_str());
  if (community->d() == csj::data::kNumCategories) {
    const auto ranked = csj::data::RankCategories(*community);
    std::printf("top categories by total likes:\n");
    for (size_t i = 0; i < 5 && i < ranked.size(); ++i) {
      std::printf("  %zu. %-24s %s\n", i + 1,
                  csj::data::CategoryName(ranked[i].category),
                  csj::util::WithCommas(ranked[i].total_likes).c_str());
    }
  }
  return 0;
}

int RunSimilarity(int argc, char** argv) {
  Flags flags;
  flags.Define("b", "", "the less-followed community's file");
  flags.Define("a", "", "the more-followed community's file");
  flags.Define("method", "Ex-MinMax",
               "one of the paper's methods or Ap-/Ex-MinMaxEGO");
  flags.Define("eps", "1", "per-dimension absolute-difference threshold");
  flags.Define("parts", "4", "MinMax encoding parts");
  flags.Define("matcher", "csf", "exact-method matcher: csf | maximum");
  flags.Define("join_threads", "1",
               "threads inside the join's scan+verify phase (0 = all "
               "cores; any value gives identical results)");
  flags.Define("json", "false", "emit a JSON report instead of text");
  flags.Define("pairs", "0", "print up to N matched pairs");
  if (!flags.Parse(argc, argv)) return 1;

  const auto method = csj::ParseMethod(flags.GetString("method"));
  if (!method.has_value()) {
    std::fprintf(stderr, "unknown method '%s'\n",
                 flags.GetString("method").c_str());
    return 1;
  }
  const auto b = LoadAny(flags.GetString("b"));
  const auto a = LoadAny(flags.GetString("a"));
  if (!b.has_value() || !a.has_value()) {
    std::fprintf(stderr, "failed to load input communities\n");
    return 1;
  }

  csj::JoinOptions options;
  options.eps = static_cast<csj::Epsilon>(flags.GetInt("eps"));
  options.encoding_parts = static_cast<uint32_t>(flags.GetInt("parts"));
  options.matcher = flags.GetString("matcher") == "maximum"
                        ? csj::matching::MatcherKind::kMaxMatching
                        : csj::matching::MatcherKind::kCsf;
  const auto join_threads =
      static_cast<uint32_t>(flags.GetInt("join_threads"));
  options.join_threads = join_threads == 0
                             ? csj::util::ThreadPool::DefaultThreads()
                             : join_threads;

  const auto result = csj::ComputeSimilarityAutoOrder(*method, *b, *a,
                                                      options);
  if (!result.has_value()) {
    std::fprintf(stderr,
                 "couple is not admissible: CSJ requires ceil(|A|/2) <= "
                 "|B| <= |A| (got %u and %u)\n",
                 b->size(), a->size());
    return 1;
  }

  const auto show_pairs = static_cast<size_t>(flags.GetInt("pairs"));
  if (flags.GetBool("json")) {
    csj::util::JsonWriter json;
    json.BeginObject();
    json.Key("method");
    json.String(result->method);
    json.Key("similarity");
    json.Double(result->Similarity());
    json.Key("matched_pairs");
    json.Uint(result->pairs.size());
    json.Key("size_b");
    json.Uint(result->size_b);
    json.Key("seconds");
    json.Double(result->stats.seconds);
    json.Key("stats");
    json.BeginObject();
    json.Key("min_prunes");
    json.Uint(result->stats.min_prunes);
    json.Key("max_prunes");
    json.Uint(result->stats.max_prunes);
    json.Key("no_overlaps");
    json.Uint(result->stats.no_overlaps);
    json.Key("dimension_compares");
    json.Uint(result->stats.dimension_compares);
    json.Key("candidate_pairs");
    json.Uint(result->stats.candidate_pairs);
    json.Key("csf_flushes");
    json.Uint(result->stats.csf_flushes);
    json.EndObject();
    json.Key("pairs");
    json.BeginArray();
    for (size_t i = 0; i < result->pairs.size() && i < show_pairs; ++i) {
      json.BeginObject();
      json.Key("b");
      json.Uint(result->pairs[i].b);
      json.Key("a");
      json.Uint(result->pairs[i].a);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    std::printf("%s\n", json.Take().c_str());
    return 0;
  }

  std::printf("%s: similarity(%s, %s) = %s  (%zu pairs, %s)\n",
              result->method.c_str(), b->name().c_str(), a->name().c_str(),
              csj::util::Percent(result->Similarity()).c_str(),
              result->pairs.size(),
              csj::util::SecondsCell(result->stats.seconds).c_str());
  for (size_t i = 0; i < result->pairs.size() && i < show_pairs; ++i) {
    std::printf("  <b%u, a%u>\n", result->pairs[i].b, result->pairs[i].a);
  }
  return 0;
}

int RunPipeline(int argc, char** argv) {
  Flags flags;
  flags.Define("pivot", "", "the pivot community's file");
  flags.Define("candidates", "",
               "comma-separated candidate community files");
  flags.Define("threshold", "0.15", "screen threshold (fraction)");
  flags.Define("eps", "1", "per-dimension threshold");
  flags.Define("screen", "Ap-SuperEGO", "screening method");
  flags.Define("refine", "Ex-MinMax", "refinement method");
  flags.Define("threads", "1",
               "couples screened/refined concurrently (0 = all cores)");
  flags.Define("join_threads", "1",
               "threads inside each join, budgeted against --threads "
               "(0 = all cores; any value gives identical reports)");
  flags.Define("cache", "true",
               "share encoded buffers between screen and refine");
  flags.Define("cache_mb", "0",
               "encoding-cache budget in MiB (0 = unlimited)");
  if (!flags.Parse(argc, argv)) return 1;

  const auto pivot = LoadAny(flags.GetString("pivot"));
  if (!pivot.has_value()) {
    std::fprintf(stderr, "failed to load pivot\n");
    return 1;
  }
  std::vector<csj::Community> loaded;
  std::string list = flags.GetString("candidates");
  size_t start = 0;
  while (start < list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string path = list.substr(start, comma - start);
    start = comma + 1;
    if (path.empty()) continue;
    auto community = LoadAny(path);
    if (!community.has_value()) {
      std::fprintf(stderr, "failed to load candidate %s\n", path.c_str());
      return 1;
    }
    if (community->name().empty()) community->set_name(path);
    loaded.push_back(std::move(*community));
  }
  if (loaded.empty()) {
    std::fprintf(stderr, "no candidates given\n");
    return 1;
  }

  const auto screen = csj::ParseMethod(flags.GetString("screen"));
  const auto refine = csj::ParseMethod(flags.GetString("refine"));
  if (!screen.has_value() || !refine.has_value()) {
    std::fprintf(stderr, "unknown screen/refine method\n");
    return 1;
  }
  csj::pipeline::PipelineOptions options;
  options.screen_method = *screen;
  options.refine_method = *refine;
  options.screen_threshold = flags.GetDouble("threshold");
  options.join.eps = static_cast<csj::Epsilon>(flags.GetInt("eps"));
  const auto threads = static_cast<uint32_t>(flags.GetInt("threads"));
  options.pipeline_threads =
      threads == 0 ? csj::util::ThreadPool::DefaultThreads() : threads;
  const auto join_threads =
      static_cast<uint32_t>(flags.GetInt("join_threads"));
  options.join.join_threads =
      join_threads == 0 ? csj::util::ThreadPool::DefaultThreads()
                        : join_threads;

  std::optional<csj::EncodingCache> cache;
  if (flags.GetBool("cache")) {
    cache.emplace(static_cast<size_t>(flags.GetInt("cache_mb")) * 1024 *
                  1024);
    options.join.cache = &*cache;
  }

  std::vector<const csj::Community*> pointers;
  for (const csj::Community& c : loaded) pointers.push_back(&c);
  const csj::pipeline::PipelineReport report =
      ScreenAndRefine(*pivot, pointers, options);

  std::printf(
      "screened %u, refined %u, bound-pruned %u, inadmissible %u (%s)\n",
      report.screened, report.refined, report.bound_pruned,
      report.inadmissible,
      csj::util::SecondsCell(report.total_seconds).c_str());
  if (cache.has_value()) {
    const csj::EncodingCache::Stats cache_stats = cache->GetStats();
    const uint64_t lookups = report.cache_hits + report.cache_misses;
    std::printf(
        "cache: %" PRIu64 " hits / %" PRIu64 " lookups (%.1f%%), "
        "%s entries, %.1f MiB resident\n",
        report.cache_hits, lookups,
        lookups == 0 ? 0.0
                     : 100.0 * static_cast<double>(report.cache_hits) /
                           static_cast<double>(lookups),
        csj::util::WithCommas(cache_stats.entries).c_str(),
        static_cast<double>(cache_stats.bytes) / (1024.0 * 1024.0));
  }
  for (const csj::pipeline::PipelineEntry& entry : report.entries) {
    if (entry.refined) {
      std::printf("  %-32s exact  %s\n", entry.candidate_name.c_str(),
                  csj::util::Percent(entry.refined_similarity).c_str());
    } else {
      std::printf("  %-32s screen %s (below threshold)\n",
                  entry.candidate_name.c_str(),
                  csj::util::Percent(entry.screened_similarity).c_str());
    }
  }
  return 0;
}

void PrintUsage() {
  std::fputs(
      "usage: csj_cli <command> [flags]\n"
      "commands:\n"
      "  generate    build a community dataset file\n"
      "  info        inspect a community file\n"
      "  similarity  run a CSJ method on two community files\n"
      "  pipeline    screen-then-refine a pivot against many candidates\n"
      "run 'csj_cli <command> --help' for per-command flags\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so each command parses only its own flags.
  argv[1] = argv[0];
  if (command == "generate") return RunGenerate(argc - 1, argv + 1);
  if (command == "info") return RunInfo(argc - 1, argv + 1);
  if (command == "similarity") return RunSimilarity(argc - 1, argv + 1);
  if (command == "pipeline") return RunPipeline(argc - 1, argv + 1);
  PrintUsage();
  return 1;
}
