#pragma once

/** @file Clock and order statistics shared by cosabench's parts. */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace cosabench {

using Clock = std::chrono::steady_clock;

/** Metric name and value, in print order. */
using MetricList = std::vector<std::pair<std::string, double>>;

/** Seconds from @p origin to now. */
inline double
secondsSince(Clock::time_point origin)
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

/** Nearest-rank percentile (q in [0, 1]); 0 for an empty sample. */
inline double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t at = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    return values[at];
}

inline double
mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

} // namespace cosabench
