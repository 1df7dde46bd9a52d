#pragma once

/**
 * @file
 * The correctness check: the daemon's byte-identity contract applied
 * to sampled jobs, plus the schedule-quality scores of result bytes.
 *
 * A sampled job's wire result must equal, byte for byte,
 * resultsToJson(...).dump() of an in-process SchedulerService solve of
 * the same request body. Cache hits are compared against cold solves
 * (which a hit must reproduce); warm-started misses are replayed on an
 * in-memory cache holding exactly the entries the daemon's cache held
 * when it solved them.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "engine/scheduler_service.hpp"

namespace cosabench {

/** Decode a POST /v1/jobs body exactly as an open-mode cosad does. */
cosa::StatusOr<cosa::ScheduleRequest> decodeRequest(const std::string& body);

/** Cycles and energy of one distinct layer's schedule. */
struct LayerScore
{
    double cycles = 0.0;
    double energy_pj = 0.0;
};

/**
 * Add every layer of result array @p results to @p scores, keyed by
 * canonical layer key. Returns an error when the bytes do not parse,
 * a layer has no schedule, or a layer already scored differently.
 */
std::string addScores(const std::string& results,
                      std::map<std::string, LayerScore>* scores);

/** Geomean cycles and energy over @p keys; an error names a missing
 *  key. */
std::string geomeans(const std::map<std::string, LayerScore>& scores,
                     const std::vector<std::string>& keys, double* cycles,
                     double* energy_pj);

/** One job to verify: its request body and the wire result bytes. */
struct Sample
{
    std::string body;
    std::string wire;
    /** For a warm-started miss: the canonical layer key whose cache
     *  entry the daemon inserted for it (the replay cache holds the
     *  entries inserted before that one). Empty for other jobs. */
    std::string miss_key;
};

/**
 * Verify @p samples in-process. Cold (non-miss) samples are solved on
 * one shared in-memory cache with warm-start hints off, so a layer
 * common to two samples is solved once and nothing is warm-started;
 * misses are replayed on a copy of @p daemon_entries (the daemon's
 * cache in insertion order) cut before their own entry. Returns one
 * error string per mismatching sample.
 */
std::vector<std::string> verifySamples(
    const std::vector<Sample>& samples,
    const std::vector<cosa::ScheduleCache::ExportedEntry>& daemon_entries);

/** The first position where two byte strings differ, as a short
 *  human-readable note. */
std::string firstDifference(const std::string& got, const std::string& want);

} // namespace cosabench
