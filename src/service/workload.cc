#include "service/workload.h"

#include <algorithm>
#include <string>

#include "data/community_sampler.h"
#include "data/generator.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj::service {

namespace {

data::Category CategoryOf(uint32_t index) {
  return static_cast<data::Category>(index % data::kNumCategories);
}

uint32_t JitteredSize(const WorkloadOptions& options, util::Rng& rng) {
  const double jitter = std::clamp(options.size_jitter, 0.0, 0.9);
  const auto lo = static_cast<uint32_t>(
      static_cast<double>(options.community_size) * (1.0 - jitter));
  const auto hi = static_cast<uint32_t>(
      static_cast<double>(options.community_size) * (1.0 + jitter));
  return static_cast<uint32_t>(
      rng.Between(std::max(lo, 8u), std::max(hi, std::max(lo, 8u))));
}

/// PlantCommunityAgainst copies floor(target * size_b) of the anchor's
/// users; keep that below the anchor's own audience so wide plant bands
/// (plant_hi near 1) stay valid against small anchors.
double CapPlantTarget(double target, const Community& anchor,
                      uint32_t size_b) {
  return std::min(target, 0.9 * static_cast<double>(anchor.size()) /
                              static_cast<double>(size_b));
}

}  // namespace

ServeWorkload::ServeWorkload(const WorkloadOptions& options)
    : options_(options),
      popularity_(std::max(options.catalog_size, 1u),
                  std::max(options.zipf_s, 0.0)) {
  CSJ_CHECK_GT(options_.catalog_size, 0u);
  options_.cluster_size = std::max(options_.cluster_size, 1u);
  options_.plant_lo = std::clamp(options_.plant_lo, 0.0, 1.0);
  options_.plant_hi = std::clamp(options_.plant_hi, options_.plant_lo, 1.0);
  const uint32_t n = options_.catalog_size;
  const uint32_t cluster = options_.cluster_size;

  // Per-community seed forking: community i's generator state depends
  // only on (workload seed, i), never on which thread builds it or in
  // what order, so the parallel build is bit-reproducible at every pool
  // size (and a 1M-community catalog no longer takes a serial eternity).
  util::Rng seeder(options_.seed);
  std::vector<uint64_t> seeds(n);
  for (uint64_t& seed : seeds) seed = seeder();

  communities_.resize(n);
  anchors_.reserve((n + cluster - 1) / cluster);
  for (uint32_t i = 0; i < n; i += cluster) anchors_.push_back(i);

  util::ThreadPool& pool = util::ThreadPool::Global();

  // Phase 1: anchors, each drawn independently from its forked seed.
  pool.Run(static_cast<uint32_t>(anchors_.size()), [&](uint32_t t) {
    const uint32_t i = anchors_[t];
    util::Rng rng(seeds[i]);
    data::VkLikeGenerator gen(CategoryOf(i / cluster));
    Community community =
        data::MakeCommunity(gen, JitteredSize(options_, rng), rng);
    community.set_name("brand_" + std::to_string(i + 1));
    communities_[i] = std::make_shared<const Community>(std::move(community));
  });

  // Phase 2: cluster members, planted against their (now built) anchor:
  // a [plant_lo, plant_hi] slice of the anchor's audience, stepped in 5
  // grades, so the exact top-k has genuine, graded winners.
  pool.Run(n, [&](uint32_t i) {
    if (i % cluster == 0) return;  // anchor, built in phase 1
    util::Rng rng(seeds[i]);
    data::VkLikeGenerator gen(CategoryOf(i / cluster));
    const uint32_t size = JitteredSize(options_, rng);
    const Community& anchor = *communities_[i - i % cluster];
    data::CoupleSpec spec;
    spec.size_b = size;
    spec.eps = options_.eps;
    spec.target_similarity = CapPlantTarget(
        options_.plant_lo + (options_.plant_hi - options_.plant_lo) *
                                (static_cast<double>(i % 5) / 4.0),
        anchor, size);
    Community community = data::PlantCommunityAgainst(anchor, gen, spec, rng);
    community.set_name("brand_" + std::to_string(i + 1));
    communities_[i] = std::make_shared<const Community>(std::move(community));
  });
}

void ServeWorkload::Populate(CsjServer* server, PopulateStats* stats) const {
  util::Timer timer;
  const uint32_t n = static_cast<uint32_t>(communities_.size());
  // The workload's communities are already frozen immutable buffers —
  // the zero-copy BulkLoad installs them as-is, no per-entry copy.
  std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> batch;
  batch.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    batch.emplace_back(i + 1, communities_[i]);
  }
  CommunityCatalog::BulkLoadStats bulk_stats;
  server->catalog().BulkLoad(std::move(batch), &bulk_stats);
  if (stats != nullptr) {
    stats->entries = n;
    stats->encode_seconds = bulk_stats.encode_seconds;
    stats->sketch_seconds = bulk_stats.sketch_seconds;
    stats->install_seconds = bulk_stats.install_seconds;
    stats->total_seconds = timer.Seconds();
    stats->entries_per_sec =
        stats->total_seconds > 0 ? n / stats->total_seconds : 0.0;
  }
}

std::shared_ptr<const Community> ServeWorkload::MintCommunity(
    util::Rng& rng) const {
  return MintAgainstAnchor(rng);
}

std::shared_ptr<const Community> ServeWorkload::MintAgainstAnchor(
    util::Rng& rng, uint64_t* anchor_id) const {
  const uint32_t anchor_index = anchors_[rng.Below(anchors_.size())];
  if (anchor_id != nullptr) *anchor_id = anchor_index + 1;
  const Community& anchor = *communities_[anchor_index];
  data::VkLikeGenerator gen(CategoryOf(anchor_index));
  data::CoupleSpec spec;
  spec.size_b = JitteredSize(options_, rng);
  spec.eps = options_.eps;
  spec.target_similarity =
      CapPlantTarget(0.10 + 0.20 * rng.NextDouble(), anchor, spec.size_b);
  util::Rng fork = rng.Fork();
  return std::make_shared<const Community>(
      data::PlantCommunityAgainst(anchor, gen, spec, fork));
}

ServeRequest ServeWorkload::NextRequest(
    util::Rng& rng, const TopKOptions& topk_template) const {
  ServeRequest request;
  request.deadline_seconds = options_.deadline_seconds;
  const double roll = rng.NextDouble();
  if (roll < options_.upsert_fraction) {
    request.kind = RequestKind::kUpsert;
    request.id = 1 + rng.Below(options_.catalog_size);
    request.community = MintCommunity(rng);
  } else if (roll < options_.upsert_fraction + options_.remove_fraction) {
    request.kind = RequestKind::kRemove;
    request.id = 1 + rng.Below(options_.catalog_size);
  } else {
    request.kind = RequestKind::kTopK;
    // Popularity-ranked pivot: rank r maps to community r (rank 0 = the
    // hottest brand). With zipf_s = 0 this is uniform.
    const uint32_t rank = popularity_.Sample(rng);
    request.community = communities_[std::min(
        rank, static_cast<uint32_t>(communities_.size()) - 1)];
    request.topk = topk_template;
  }
  return request;
}

}  // namespace csj::service
