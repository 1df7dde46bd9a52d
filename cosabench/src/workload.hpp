#pragma once

/**
 * @file
 * cosabench's seeded request streams. Every body the daemon receives
 * is produced here from (seed, index) alone, so one seed always yields
 * the same requests in the same order, whichever client sends them.
 *
 * Layer sets:
 *  - the suite rows: the 65 layer rows of the paper's AlexNet,
 *    ResNet-50, ResNeXt-50 and DeepBench suites (Fig. 6);
 *  - the warm set: resnet50full (53 layers, 23 distinct shapes), solved
 *    into the daemon's persistent cache by one set-up job;
 *  - the misses: shapes next to the warm set (one dimension doubled,
 *    or a larger batch) that the warm cache does not hold, so each one
 *    is a cache miss with a nearest-neighbor warm start.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "problem/layer.hpp"

namespace cosabench {

enum class WorkloadKind {
    ColdSolve,  //!< closed loop of uncached single-layer solves
    WarmHits,   //!< closed loop of warm-cache hits
    MixedTiers, //!< open-loop interactive hits + sequential batch misses
};

/** Parse "cold-solve" / "warm-hits" / "mixed-tiers". */
bool parseWorkload(const std::string& name, WorkloadKind* out);
const char* workloadName(WorkloadKind kind);

/** One generated request body and the tier it was sent on. */
struct Request
{
    std::string body;
    bool batch = false; //!< "batch" priority (else interactive/batch mix)
};

/** The 65 suite rows in paper order (AlexNet, ResNet-50, ResNeXt-50,
 *  DeepBench); some shapes occur in two suites. */
std::vector<cosa::LayerSpec> suiteRows();

/** The warm set's distinct layers, in set-up job order. */
const std::vector<cosa::LayerSpec>& warmLayers();

/** The one set-up job that solves the warm set into the cache. */
std::string warmupBody();

/** i-th request of cold-solve: pass i / 65 visits every suite row once
 *  in a seeded order, as a batch-tier job with use_cache false. */
Request coldRequest(std::uint64_t seed, std::int64_t i);

/**
 * i-th warm-hit draw: a named warm network (resnet50full or resnet50,
 * an eighth of the draws each) or an inline subset of 1-6 warm layers
 * (repeats allowed, so dedup runs). With @p all_interactive false,
 * named networks go on the batch tier and subsets on the interactive
 * tier.
 */
Request warmRequest(std::uint64_t seed, std::int64_t i,
                    bool all_interactive);

/** Misses 0 .. kProbeMisses-1 (batch 3 of four fixed warm layers) are
 *  the same on every seed, so the schedule-quality metrics of
 *  mixed-tiers do not depend on the seed. */
inline constexpr std::int64_t kProbeMisses = 4;

/** j-th novel shape of mixed-tiers' batch stream (never repeats within
 *  a seed; never in the warm set). */
cosa::LayerSpec missLayer(std::uint64_t seed, std::int64_t j);

/** Batch-tier body solving missLayer(seed, j). */
Request missRequest(std::uint64_t seed, std::int64_t j);

} // namespace cosabench
