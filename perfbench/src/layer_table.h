/**
 * @file
 * Per-layer self-time table built from the tracer's JSONL export.
 *
 * Only host-track spans on the caller thread (tid 0) that nest inside
 * a "request" span count. A span's self time is its duration minus
 * the durations of its direct children; a span's layer is its name up
 * to the first '.', with the simulator's "DpuSet::launch" in layer
 * "pim". The request span's own self time is the unattributed rest.
 * Spans on other lanes (the per-DPU "dpu.run" spans, whose tid is the
 * DPU index + 1) are summed separately: they run inside the caller's
 * DpuSet::launch span, on whichever host-pool thread, and would be
 * counted twice if they were nested into it.
 */

#ifndef PERFBENCH_LAYER_TABLE_H
#define PERFBENCH_LAYER_TABLE_H

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace perfbench {

constexpr const char *kRequestSpan = "request";

inline std::string
layerOf(const std::string &span)
{
    if (span == kRequestSpan)
        return "(unattributed)";
    if (span.rfind("DpuSet::", 0) == 0)
        return "pim";
    return span.substr(0, span.find('.'));
}

class LayerTable
{
  public:
    struct Row
    {
        std::uint64_t calls = 0;
        double selfMs = 0;
        double inclMs = 0;
    };

    /** Fold one request's JSONL export into the table. Returns false
     *  when the export does not parse. */
    bool
    addJsonl(const std::string &jsonl)
    {
        struct Span
        {
            std::string name;
            double begin = 0;
            double end = 0;
            double childUs = 0;
            bool inRequest = false;
        };
        std::vector<Span> spans;
        std::istringstream in(jsonl);
        std::string line;
        while (std::getline(in, line)) {
            const pimhe::obs::JsonParseResult r = pimhe::obs::parseJson(line);
            if (!r.ok)
                return false;
            const auto *kind = r.value.find("kind");
            const auto *track = r.value.find("track");
            if (kind == nullptr || kind->asString() != "span" ||
                track == nullptr || track->asString() != "host")
                continue;
            const std::string name = r.value.find("name")->asString();
            const double dur = r.value.find("dur_us")->asNumber();
            if (r.value.find("tid")->asNumber() != 0) {
                workerMs_[name] += dur / 1e3;
                continue;
            }
            const double begin = r.value.find("begin_us")->asNumber();
            spans.push_back({name, begin, begin + dur, 0, false});
        }
        // Parents first: earlier begin, then longer span.
        std::stable_sort(spans.begin(), spans.end(),
                         [](const Span &a, const Span &b) {
                             if (a.begin != b.begin)
                                 return a.begin < b.begin;
                             return a.end > b.end;
                         });
        std::vector<std::size_t> stack;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            while (!stack.empty() && spans[i].begin >= spans[stack.back()].end)
                stack.pop_back();
            if (!stack.empty()) {
                Span &parent = spans[stack.back()];
                parent.childUs += spans[i].end - spans[i].begin;
                spans[i].inRequest = parent.inRequest;
            }
            if (spans[i].name == kRequestSpan)
                spans[i].inRequest = true;
            stack.push_back(i);
        }
        for (const Span &s : spans) {
            if (!s.inRequest)
                continue;
            Row &row = rows_[s.name];
            row.calls += 1;
            row.inclMs += (s.end - s.begin) / 1e3;
            row.selfMs += (s.end - s.begin - s.childUs) / 1e3;
            if (s.name == kRequestSpan)
                requests_ += 1;
        }
        return true;
    }

    /** Per-request self time of one span name (0 when absent). */
    double
    selfMsPerRequest(const std::string &span) const
    {
        const auto it = rows_.find(span);
        return it == rows_.end() || requests_ == 0
                   ? 0
                   : it->second.selfMs / static_cast<double>(requests_);
    }

    /** Mean request wall time (ms). */
    double
    requestMs() const
    {
        const auto it = rows_.find(kRequestSpan);
        return it == rows_.end() || requests_ == 0
                   ? 0
                   : it->second.inclMs / static_cast<double>(requests_);
    }

    /** Mean request wall not covered by any named layer (ms). */
    double unattributedMs() const { return selfMsPerRequest(kRequestSpan); }

    /** Share of request wall time covered by named layers. */
    double
    coverage() const
    {
        const double total = requestMs();
        return total > 0 ? 1.0 - unattributedMs() / total : 0;
    }

    /** The self-time table, one row per span, grouped by layer. */
    void
    print(std::ostream &os) const
    {
        const double total = requestMs();
        std::vector<std::pair<std::string, std::string>> order;
        for (const auto &[name, row] : rows_)
            order.emplace_back(layerOf(name), name);
        std::sort(order.begin(), order.end());
        os << "per-layer self time over " << requests_
           << " traced requests (host clock, ms per request)\n";
        os << std::left << std::setw(16) << "layer" << std::setw(32)
           << "span" << std::right << std::setw(10) << "calls/req"
           << std::setw(12) << "self_ms" << std::setw(12) << "incl_ms"
           << std::setw(9) << "self%" << "\n";
        std::map<std::string, double> per_layer;
        for (const auto &[layer, name] : order) {
            const Row &row = rows_.at(name);
            const double n = static_cast<double>(requests_);
            per_layer[layer] += row.selfMs / n;
            os << std::left << std::setw(16) << layer << std::setw(32)
               << name << std::right << std::fixed << std::setprecision(2)
               << std::setw(10) << row.calls / n << std::setprecision(4)
               << std::setw(12) << row.selfMs / n << std::setw(12)
               << row.inclMs / n << std::setprecision(1) << std::setw(8)
               << 100.0 * row.selfMs / n / total << "%\n";
        }
        os << "layer totals:";
        for (const auto &[layer, ms] : per_layer)
            os << "  " << layer << " " << std::setprecision(4) << ms
               << " ms (" << std::setprecision(1) << 100.0 * ms / total
               << "%)";
        os << "\nrequest wall " << std::setprecision(4) << total
           << " ms; named layers cover " << std::setprecision(2)
           << 100.0 * coverage() << "%\n";
        for (const auto &[name, ms] : workerMs_)
            os << "per-DPU lanes: " << name << " " << std::setprecision(4)
               << ms / static_cast<double>(std::max<std::uint64_t>(1, requests_))
               << " ms per request (summed over DPUs, inside "
                  "DpuSet::launch)\n";
        os << std::defaultfloat;
    }

    /** The table as JSON rows (layer, span, per-request figures). */
    pimhe::obs::JsonValue
    toJson() const
    {
        using pimhe::obs::JsonValue;
        JsonValue rows = JsonValue::makeArray();
        const double n = static_cast<double>(std::max<std::uint64_t>(1, requests_));
        for (const auto &[name, row] : rows_) {
            JsonValue r = JsonValue::makeObject();
            r.set("layer", JsonValue(layerOf(name)));
            r.set("span", JsonValue(name));
            r.set("calls_per_request", JsonValue(row.calls / n));
            r.set("self_ms", JsonValue(row.selfMs / n));
            r.set("incl_ms", JsonValue(row.inclMs / n));
            rows.push(std::move(r));
        }
        return rows;
    }

  private:
    std::map<std::string, Row> rows_;
    std::map<std::string, double> workerMs_;
    std::uint64_t requests_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYER_TABLE_H
