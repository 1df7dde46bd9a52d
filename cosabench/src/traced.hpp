#pragma once

/**
 * @file
 * The traced pass: the wire pass's requests run again in-process, with
 * spans around the program's public calls (see spans.hpp) and a direct
 * CosaFormulation + solve() of every layer a job solved, then once
 * more with no decorators and no spans. Each request's wire latency is
 * split into layer shares plus a residual, and the per-layer metrics
 * are computed from the spans, the results' SearchStats, the MIP
 * results and the service's stats.
 */

#include <string>
#include <vector>

#include "loadgen.hpp"
#include "util.hpp"

namespace cosabench {

/** One traced request: its body and what each pass measured. */
struct TracedRequest
{
    std::string body;
    JobRecord wire;
    double decode_us = 0.0, engine_ms = 0.0, encode_us = 0.0;
    double plain_ms = 0.0;  //!< untraced decode + job + encode
    double traced_ms = 0.0; //!< traced decode + job + encode
    std::size_t result_bytes = 0;
    double cache_ms = 0.0, model_ms = 0.0, search_ms = 0.0;
    double solver_ms = 0.0;
};

/** What the traced pass reports. */
struct TraceReport
{
    MetricList metrics;
    std::vector<std::string> errors;
};

/** Where the traced pass finds its caches and puts its spans. */
struct TraceSetup
{
    /** Copy of the daemon's warm cache for the traced pass; empty when
     *  the workload uses no cache. */
    std::string trace_cache;
    /** A second copy, for the untraced pass. */
    std::string plain_cache;
    std::string spans_path;
    /** Time origin of the wire records, and so of every span. */
    Clock::time_point wire_origin;
};

/** Run both in-process passes over @p traced (whose wire records are
 *  filled) and compute every per-layer metric except the load
 *  generator's. Writes the spans to setup.spans_path. */
TraceReport tracedPass(std::vector<TracedRequest>& traced,
                       const TraceSetup& setup);

} // namespace cosabench
