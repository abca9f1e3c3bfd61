/**
 * @file
 * perfbench — end-to-end and per-layer benchmark of the simulated
 * PIM-HE stack on three paper workloads (see perfbench/README.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--corrupt-request k] [--out-dir dir] [--detail file]
 *
 * One closed-loop client sends its next request only after the
 * previous one returned. --trace 0 reports the end-to-end metrics
 * (tracing off); --trace 1 reports the per-layer metrics from an
 * untraced half and a traced half of the run and prints the per-layer
 * self-time table. The last stdout line is one JSON object with keys
 * correct / attempted / failed / metrics. The exit status is 0 only
 * when every request passed its check and every gate held: ledger
 * closure (per request against the transfer totals, per loop against
 * the DpuSets' own modelled total), modelled determinism against a
 * fresh replay at another host thread count, a deliberately corrupted
 * result being caught, and (traced runs) layer coverage of the request
 * wall time.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/symbolic.h"
#include "analysis/verifier.h"
#include "bench_common.h"
#include "layer_table.h"
#include "ledger.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using pimhe::obs::JsonValue;

/** Taken during static initialisation, i.e. at process start. */
const Clock::time_point kProcessStart = Clock::now();

/** Minimum timed requests: at least 10 lie beyond a whole-run p95, and
 *  each p95 window holds at least 25. */
constexpr std::size_t kMinTimedRequests = 200;
/** The loop may run this much past --seconds to reach that minimum. */
constexpr double kMaxExtensionS = 60;
/**
 * latency_p95_ms is the median, over this many equal consecutive windows
 * of the timed requests, of each window's p95. A neighbour that slows
 * the shared host for part of a run then moves the figure only when it
 * covers most windows; the whole-run p95 is printed beside it.
 */
constexpr std::size_t kP95Windows = 8;
/** Minimum requests in each half of a traced run. */
constexpr std::size_t kMinTraceHalfRequests = 30;
/**
 * Host threads of the determinism replay: another count than the timed
 * loop's WorkloadSpec::hostThreads, so the modelled numbers are checked
 * across thread counts (1 against the pinned count, or 4 when the pinned
 * count is 1).
 */
std::size_t
replayHostThreads(const WorkloadSpec &spec)
{
    return spec.hostThreads == 1 ? 4 : 1;
}
/** Warm-up requests per set-up (the first one is reported alone). */
constexpr int kWarmupRequests = 3;
/** setup_s repeats set-up at least kMinSetups times and until this
 *  much set-up time has accumulated (a sub-second set-up then gets
 *  enough repetitions for a stable median), but at most kMaxSetups
 *  times. */
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 5;
constexpr int kMaxSetups = 15;
/** Required share of request wall time covered by named layers. */
constexpr double kMinCoverage = 0.95;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    long corruptRequest = -1;
    std::string outDir;
    std::string detail;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--seconds")
            o.seconds = std::stod(val);
        else if (key == "--trace")
            o.trace = val == "1";
        else if (key == "--corrupt-request")
            o.corruptRequest = std::stol(val);
        else if (key == "--out-dir")
            o.outDir = val;
        else if (key == "--detail")
            o.detail = val;
        else
            return false;
    }
    return argc % 2 == 1 && findSpec(o.workload) != nullptr &&
           o.seconds > 0;
}

/** One metric's identity. BENCHMARK.json at the repository root lists
 *  the same names and units; run.py checks that they match. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *clock;
};

const std::vector<MetricDef> kEndToEnd = {
    {"requests_per_s", "1/s", "host"},
    {"latency_p50_ms", "ms", "host"},
    {"latency_p95_ms", "ms", "host"},
    {"modelled_ms_per_request", "modelled_ms", "modelled"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MiB", "host"},
};

const std::vector<MetricDef> kPerLayer = {
    {"bfv.keygen_ms", "ms", "host"},
    {"bfv.encrypt_ms", "ms", "host"},
    {"bfv.decrypt_ms", "ms", "host"},
    {"bfv.eval_self_ms", "ms", "host"},
    {"poly.convolve_ms", "ms", "host"},
    {"poly.convolves_per_request", "count", "-"},
    {"pimhe.self_ms", "ms", "host"},
    {"pimhe.stage_ms", "ms", "host"},
    {"pimhe.collect_ms", "ms", "host"},
    {"pimhe.resident_reduce_ms", "ms", "host"},
    {"pim.launches_per_request", "count", "-"},
    {"pim.launch_host_ms", "ms", "host"},
    {"pim.sim_minstr_per_s", "Minstr/s", "host"},
    {"pim.kernel_ms", "modelled_ms", "modelled"},
    {"pim.h2d_ms", "modelled_ms", "modelled"},
    {"pim.d2h_ms", "modelled_ms", "modelled"},
    {"pim.overhead_ms", "modelled_ms", "modelled"},
    {"pim.bus_bytes_per_request", "bytes", "modelled"},
    {"analysis.verify_ms_per_launch", "ms", "host"},
    {"first_request_ms", "ms", "host"},
    {"rss_kb_per_launch", "KiB", "host"},
    {"trace_overhead_ratio", "ratio", "host"},
    {"unattributed_ms", "ms", "host"},
    {"trace_coverage", "ratio", "host"},
};

/** Outcome of one request. */
struct Record
{
    double latencyMs = 0;
    LaunchDelta delta;
    RequestProbe probe;
    bool ok = false;
};

/** One set-up: client keys and pool, server, launch ledger and the
 *  seeded operand-index stream. */
struct Deployment
{
    Deployment(const WorkloadSpec &spec, std::uint64_t seed,
            std::size_t host_threads)
        : client(spec.degree, seed, spec.relinKey),
          workload(makeWorkload(spec, client, host_threads)),
          ledger(workload->dpuSets()),
          idx(streamRng(seed, Stream::Index))
    {}

    Record
    request(bool corrupt)
    {
        workload->prepare(idx);
        if (corrupt)
            workload->corruptNextResult();
        Record r;
        ledger.begin();
        const auto t0 = Clock::now();
        {
            pimhe::obs::ScopedSpan span(pimhe::obs::Tracer::global(), 0,
                                        kRequestSpan);
            workload->run(r.probe);
        }
        r.latencyMs = msSince(t0);
        r.delta = ledger.end();
        r.ok = workload->check(r.probe);
        return r;
    }

    Client client; // outlives the workload, which refers to it
    std::unique_ptr<Workload> workload;
    LaunchLedger ledger;
    Rng idx;
};

/** Aggregate of one closed-loop phase. */
struct Phase
{
    std::vector<double> latencyMs;
    std::vector<LaunchDelta> deltas;
    LaunchDelta sum;
    RequestProbe probe;
    double historyMs = 0; //!< DpuSets' own modelled-total delta
    double rssStartKb = 0;
    double rssEndKb = 0;
    double peakRssKb = 0; //!< VmHWM after the rss_at-th request
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    std::size_t size() const { return latencyMs.size(); }
};

/**
 * Closed loop for `seconds` (extended up to kMaxExtensionS to reach
 * `min_requests` and, when nonzero, `rss_at` requests, after which the
 * peak RSS is read). Traced loops fold each request's spans into
 * `table` and clear the tracer; the first traced request's Chrome
 * trace goes to `chrome_path` when set.
 */
Phase
runLoop(Deployment &s, double seconds, std::size_t min_requests,
        std::size_t rss_at, long corrupt_at, LayerTable *table,
        const std::string &chrome_path)
{
    auto &tracer = pimhe::obs::Tracer::global();
    auto &registry = pimhe::obs::Registry::global();
    tracer.clear();
    tracer.setEnabled(table != nullptr);
    registry.setEnabled(table != nullptr);

    Phase p;
    p.rssStartKb = procStatusKb("VmRSS");
    const double history0 = s.ledger.historyTotalMs();
    min_requests = std::max(min_requests, rss_at);
    const auto t0 = Clock::now();
    for (;;) {
        const double elapsed = msSince(t0) / 1e3;
        if (elapsed >= seconds && (p.size() >= min_requests ||
                                   elapsed >= seconds + kMaxExtensionS))
            break;
        const bool corrupt =
            corrupt_at == static_cast<long>(p.size());
        const Record r = s.request(corrupt);
        p.latencyMs.push_back(r.latencyMs);
        p.deltas.push_back(r.delta);
        p.sum.add(r.delta);
        p.probe.pimheMs += r.probe.pimheMs;
        p.probe.bfvEvalMs += r.probe.bfvEvalMs;
        p.probe.convolveMs += r.probe.convolveMs;
        p.probe.convolves += r.probe.convolves;
        p.probe.decryptMs += r.probe.decryptMs;
        p.probe.decrypts += r.probe.decrypts;
        p.attempted += 1;
        p.failed += r.ok ? 0 : 1;
        if (p.size() == rss_at)
            p.peakRssKb = procStatusKb("VmHWM");
        if (table != nullptr) {
            std::ostringstream jsonl;
            tracer.writeJsonl(jsonl);
            if (!table->addJsonl(jsonl.str()))
                pimhe::panic("perfbench: trace export did not parse");
            if (p.size() == 1 && !chrome_path.empty()) {
                std::ofstream out(chrome_path);
                tracer.writeChromeTrace(out);
            }
            tracer.clear();
        }
    }
    p.rssEndKb = procStatusKb("VmRSS");
    p.historyMs = s.ledger.historyTotalMs() - history0;
    tracer.setEnabled(false);
    registry.setEnabled(false);
    return p;
}

/** Host time of the pre-launch static checks on the workload's own
 *  footprints: LaunchVerifier::verify + SymbolicProver::proveAt. */
double
verifyMsPerLaunch(const Workload &wl, std::vector<std::string> &gates)
{
    const pimhe::pim::DpuConfig dpu = serverConfig(1).dpu;
    const auto fps = wl.footprints();
    const pimhe::analysis::LaunchVerifier verifier(dpu);
    const pimhe::analysis::SymbolicProver prover(dpu.maxTasklets);
    std::vector<double> per_launch;
    const auto t_end = Clock::now() + std::chrono::milliseconds(300);
    bool all_ok = true;
    while (Clock::now() < t_end || per_launch.size() < 5) {
        const auto t0 = Clock::now();
        for (const auto &fp : fps) {
            all_ok &= verifier.verify(fp, kTasklets).ok();
            all_ok &= prover.proveAt(fp, kTasklets).ok();
        }
        per_launch.push_back(msSince(t0) / static_cast<double>(fps.size()));
    }
    if (!all_ok)
        gates.push_back("a workload footprint failed static verification");
    return medianOf(per_launch);
}

double
windowedP95(const std::vector<double> &latency_ms)
{
    std::vector<double> per_window;
    for (std::size_t w = 0; w < kP95Windows; ++w)
        per_window.push_back(percentileOf(
            {latency_ms.begin() + latency_ms.size() * w / kP95Windows,
             latency_ms.begin() + latency_ms.size() * (w + 1) / kP95Windows},
            95));
    return medianOf(per_window);
}

void
printMetrics(const std::vector<MetricDef> &defs,
             const std::vector<std::pair<std::string, double>> &values)
{
    std::cout << std::left << std::setw(32) << "metric" << std::right
              << std::setw(18) << "value" << "  " << std::left
              << std::setw(13) << "unit" << "clock\n";
    for (const MetricDef &d : defs)
        for (const auto &[name, v] : values)
            if (name == d.name)
                std::cout << std::left << std::setw(32) << d.name
                          << std::right << std::setw(18) << exactNum(v)
                          << "  " << std::left << std::setw(13) << d.unit
                          << d.clock << "\n";
}

JsonValue
metricsJson(const std::vector<MetricDef> &defs,
            const std::vector<std::pair<std::string, double>> &values)
{
    JsonValue m = JsonValue::makeObject();
    for (const MetricDef &d : defs)
        for (const auto &[name, v] : values)
            if (name == d.name) {
                JsonValue e = JsonValue::makeObject();
                e.set("value", JsonValue(v));
                e.set("unit", JsonValue(d.unit));
                m.set(d.name, std::move(e));
            }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        if (!parseArgs(argc, argv, o))
            throw std::invalid_argument("bad arguments");
    } catch (const std::exception &) {
        std::cerr << "usage: perfbench --workload "
                     "<vector_add_staged|mean_resident|mul_relin_sharded> "
                     "--seed <n> --seconds <s> --trace <0|1> "
                     "[--corrupt-request k] [--out-dir dir] "
                     "[--detail file]\n";
        return 2;
    }
    const WorkloadSpec &spec = *findSpec(o.workload);
    // Observability stays off unless this run turns it on, whatever
    // PIMHE_OBS says.
    pimhe::obs::Tracer::global().setEnabled(false);
    pimhe::obs::Registry::global().setEnabled(false);

    std::vector<std::string> gates;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // Set-up, repeated when setup_s is measured: keygen, pool
    // encryption, server construction and warm-up requests. Only the
    // first repetition counts from process start.
    std::unique_ptr<Deployment> s;
    std::vector<double> setup_ms;
    std::vector<LaunchDelta> warm_deltas;
    double first_request_ms = 0;
    double setup_total_ms = 0;
    for (int i = 0;
         i < 1 || (!o.trace && (i < kMinSetups ||
                                (setup_total_ms < kMinSetupSeconds * 1e3 &&
                                 i < kMaxSetups)));
         ++i) {
        const auto t0 = i == 0 ? kProcessStart : Clock::now();
        s.reset();
        s = std::make_unique<Deployment>(spec, o.seed, spec.hostThreads);
        warm_deltas.clear();
        for (int w = 0; w < kWarmupRequests; ++w) {
            const Record r = s->request(false);
            if (i == 0 && w == 0)
                first_request_ms = r.latencyMs;
            warm_deltas.push_back(r.delta);
            attempted += 1;
            failed += r.ok ? 0 : 1;
        }
        setup_ms.push_back(msSince(t0));
        setup_total_ms += setup_ms.back();
    }

    // The timed closed loop(s).
    LayerTable table;
    const std::string tag =
        std::string(spec.name) + "_seed" + std::to_string(o.seed);
    const std::string chrome_path =
        o.outDir.empty() ? "" : o.outDir + "/trace_" + tag + ".json";
    Phase timed = runLoop(*s, o.trace ? o.seconds / 2 : o.seconds,
                          o.trace ? kMinTraceHalfRequests
                                  : kMinTimedRequests,
                          o.trace ? 0 : spec.rssRequests, o.corruptRequest,
                          nullptr, "");
    Phase traced;
    if (o.trace)
        traced = runLoop(*s, o.seconds / 2, kMinTraceHalfRequests, 0, -1,
                         &table, chrome_path);
    attempted += timed.attempted + traced.attempted;
    failed += timed.failed + traced.failed;

    // Gates.
    if (!s->ledger.failure().empty())
        gates.push_back("ledger closure: " + s->ledger.failure());
    for (const Phase *p : {&timed, &traced})
        if (!closeRel(p->sum.totalMs, p->historyMs, kClosureRel))
            gates.push_back(
                "ledger closure: per-request kernel + h2d + d2h + "
                "overhead sum to " + exactNum(p->sum.totalMs) +
                " ms over the loop, the DpuSets' totalModeledMs() moved " +
                exactNum(p->historyMs) + " ms");
    if (!o.trace && timed.peakRssKb == 0)
        gates.push_back("the loop ended before request " +
                        std::to_string(spec.rssRequests) +
                        ", where peak_rss_mb is read");
    {
        // The checks must catch a corrupted result.
        const Record r = s->request(/*corrupt=*/true);
        if (r.ok)
            gates.push_back("a corrupted result passed its check");
    }
    {
        // Modelled numbers must not depend on host threads or on the
        // process: replay the warm-up requests on a fresh server at the
        // other thread count and compare every modelled field bit for
        // bit.
        auto replay = makeWorkload(spec, s->client,
                                   replayHostThreads(spec));
        LaunchLedger ledger(replay->dpuSets());
        Rng idx = streamRng(o.seed, Stream::Index);
        for (std::size_t w = 0; w < warm_deltas.size(); ++w) {
            RequestProbe probe;
            replay->prepare(idx);
            ledger.begin();
            replay->run(probe);
            const LaunchDelta d = ledger.end();
            if (!replay->check(probe))
                gates.push_back("replay request failed its check");
            if (!d.modelledEquals(warm_deltas[w]))
                gates.push_back("request " + std::to_string(w) +
                                ": modelled cost at " +
                                std::to_string(replayHostThreads(spec)) +
                                " host threads differs from " +
                                std::to_string(spec.hostThreads));
        }
        if (!ledger.failure().empty())
            gates.push_back("replay ledger closure: " + ledger.failure());
    }

    // Every timed request must cost the same modelled time; the gate
    // below reports any variation, so the first one stands for all.
    const LaunchDelta rep = timed.deltas.front();
    double modelled_min = rep.totalMs, modelled_max = rep.totalMs;
    for (const LaunchDelta &d : timed.deltas) {
        modelled_min = std::min(modelled_min, d.totalMs);
        modelled_max = std::max(modelled_max, d.totalMs);
    }
    if (modelled_min != modelled_max)
        gates.push_back("modelled cost varies across requests (" +
                        exactNum(modelled_min) + " .. " +
                        exactNum(modelled_max) + " ms)");

    const double n = static_cast<double>(timed.size());
    double lat_sum_ms = 0;
    for (const double l : timed.latencyMs)
        lat_sum_ms += l;
    const double p50 = percentileOf(timed.latencyMs, 50);
    const double p95 = windowedP95(timed.latencyMs);
    const double p95_whole_run = percentileOf(timed.latencyMs, 95);
    std::size_t beyond_p95 = 0;
    for (const double l : timed.latencyMs)
        beyond_p95 += l > p95 ? 1 : 0;

    std::vector<std::pair<std::string, double>> values;
    const std::vector<MetricDef> *defs = &kEndToEnd;
    if (!o.trace) {
        values = {
            // Requests per host second spent in requests: checking
            // results between requests is the client's think time.
            {"requests_per_s", n / (lat_sum_ms / 1e3)},
            {"latency_p50_ms", p50},
            {"latency_p95_ms", p95},
            {"modelled_ms_per_request", rep.totalMs},
            {"setup_s", medianOf(setup_ms) / 1e3},
            {"peak_rss_mb", timed.peakRssKb / 1024},
        };
    } else {
        defs = &kPerLayer;
        const RequestProbe &pr = timed.probe;
        const double host_ms = timed.sum.hostWallMs;
        if (table.coverage() < kMinCoverage)
            gates.push_back("named layers cover only " +
                            std::to_string(100 * table.coverage()) +
                            "% of traced request wall time");
        values = {
            {"bfv.keygen_ms", s->client.keygenMs()},
            {"bfv.encrypt_ms", s->client.encryptMsPerCt()},
            {"bfv.decrypt_ms",
             pr.decrypts ? pr.decryptMs / static_cast<double>(pr.decrypts)
                         : 0},
            {"bfv.eval_self_ms", (pr.bfvEvalMs - pr.convolveMs) / n},
            {"poly.convolve_ms", pr.convolveMs / n},
            {"poly.convolves_per_request",
             static_cast<double>(pr.convolves) / n},
            {"pimhe.self_ms", (pr.pimheMs - host_ms) / n},
            {"pimhe.stage_ms", table.selfMsPerRequest("pimhe.stage")},
            {"pimhe.collect_ms", table.selfMsPerRequest("pimhe.collect")},
            {"pimhe.resident_reduce_ms",
             table.selfMsPerRequest("pimhe.resident_reduce")},
            {"pim.launches_per_request", static_cast<double>(rep.launches)},
            {"pim.launch_host_ms", host_ms / n},
            {"pim.sim_minstr_per_s",
             static_cast<double>(timed.sum.instructions) / host_ms / 1e3},
            {"pim.kernel_ms", rep.kernelMs},
            {"pim.h2d_ms", rep.h2dMs},
            {"pim.d2h_ms", rep.d2hMs},
            {"pim.overhead_ms", rep.overheadMs},
            {"pim.bus_bytes_per_request", static_cast<double>(rep.busBytes)},
            {"analysis.verify_ms_per_launch",
             verifyMsPerLaunch(*s->workload, gates)},
            {"first_request_ms", first_request_ms},
            {"rss_kb_per_launch",
             (timed.rssEndKb - timed.rssStartKb) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, timed.sum.launches))},
            {"trace_overhead_ratio",
             percentileOf(traced.latencyMs, 50) / p50},
            {"unattributed_ms", table.unattributedMs()},
            {"trace_coverage", table.coverage()},
        };
    }

    // Human-readable report.
    std::cout << "perfbench " << spec.name << " seed=" << o.seed
              << " trace=" << (o.trace ? 1 : 0)
              << " host_threads=" << spec.hostThreads << " timed_requests="
              << timed.size();
    if (o.trace)
        std::cout << " traced_requests=" << traced.size();
    else
        std::cout << " (p95 has " << beyond_p95
                  << " beyond it; whole-run p95 "
                  << exactNum(p95_whole_run) << " ms)";
    std::cout << "\n";
    if (!o.trace) {
        std::cout << "setup runs (s):";
        for (const double ms : setup_ms)
            std::cout << " " << exactNum(ms / 1e3);
        std::cout << "; first request " << exactNum(first_request_ms)
                  << " ms; peak RSS read after timed request "
                  << spec.rssRequests << "\n";
    }
    printMetrics(*defs, values);
    std::cout << std::left << std::setw(32) << "error_rate" << std::right
              << std::setw(18)
              << exactNum(static_cast<double>(failed) /
                          static_cast<double>(attempted))
              << "  " << std::left << std::setw(13) << "ratio" << "-"
              << "  (" << failed << " of " << attempted
              << " requests failed their check)\n";
    std::cout << "modelled request: " << rep.launches << " launches, "
              << rep.busBytes << " bus bytes, kernel "
              << exactNum(rep.kernelMs) << " + h2d " << exactNum(rep.h2dMs)
              << " + d2h " << exactNum(rep.d2hMs) << " + overhead "
              << exactNum(rep.overheadMs) << " = "
              << exactNum(rep.totalMs) << " modelled ms\n";
    if (o.trace)
        table.print(std::cout);
    for (const std::string &g : gates)
        std::cout << "GATE FAILED: " << g << "\n";

    const bool correct = failed == 0 && gates.empty();
    JsonValue result = JsonValue::makeObject();
    result.set("correct", JsonValue(correct));
    result.set("attempted", JsonValue(attempted));
    result.set("failed", JsonValue(failed));
    result.set("metrics", metricsJson(*defs, values));

    if (!o.detail.empty()) {
        JsonValue det = JsonValue::makeObject();
        det.set("workload", JsonValue(spec.name));
        det.set("seed", JsonValue(o.seed));
        det.set("trace", JsonValue(o.trace));
        det.set("host_threads",
                JsonValue(std::uint64_t(spec.hostThreads)));
        det.set("timed_requests", JsonValue(std::uint64_t(timed.size())));
        JsonValue lat = JsonValue::makeArray();
        for (const double l : timed.latencyMs)
            lat.push(JsonValue(l));
        det.set("latencies_ms", std::move(lat));
        det.set("latency_p95_whole_run_ms", JsonValue(p95_whole_run));
        JsonValue modelled = JsonValue::makeObject();
        modelled.set("modelled_ms_per_request", JsonValue(rep.totalMs));
        modelled.set("launches_per_request", JsonValue(rep.launches));
        modelled.set("bus_bytes_per_request", JsonValue(rep.busBytes));
        det.set("modelled", std::move(modelled));
        JsonValue gate_list = JsonValue::makeArray();
        for (const std::string &g : gates)
            gate_list.push(JsonValue(g));
        det.set("gates", std::move(gate_list));
        if (o.trace)
            det.set("layers", table.toJson());
        det.set("result", result);
        std::ofstream(o.detail) << det.dump(2) << "\n";
    }
    std::cout << result.dump() << std::endl;
    return correct ? 0 : 1;
}
