/**
 * @file
 * Small helpers shared by the benchmark program: wall clocks, process
 * memory readings, order statistics and exact number formatting.
 */

#ifndef PERFBENCH_BENCH_COMMON_H
#define PERFBENCH_BENCH_COMMON_H

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

/** A "VmRSS"/"VmHWM"-style field of /proc/self/status, in KiB (0 when
 *  the file or field is missing). */
inline double
procStatusKb(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, field.size() + 1, field + ":") != 0)
            continue;
        std::istringstream is(line.substr(field.size() + 1));
        double kb = 0;
        is >> kb;
        return kb;
    }
    return 0;
}

/** Nearest-rank percentile (common/stats.h) of an unsorted sample. */
inline double
percentileOf(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    return pimhe::percentile(xs, p);
}

inline double
medianOf(std::vector<double> xs)
{
    return percentileOf(std::move(xs), 50);
}

/** Shortest decimal that round-trips to exactly `v`. */
inline std::string
exactNum(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_COMMON_H
