/**
 * @file
 * cosabench — real CoSA jobs through cosad, end to end.
 *
 *   cosabench --workload {cold-solve,warm-hits,mixed-tiers} --seed N
 *             --seconds S --trace {0,1} [--work-dir DIR]
 *
 * One run: set up (spawn cosad on an ephemeral port and a fresh
 * --cache-dir, wait until healthy, solve the warm set into the cache;
 * several times, keeping the last daemon), drive the workload's seeded
 * requests for S seconds, check sampled results byte for byte against
 * in-process solves, and print every metric with its unit on stderr
 * and, as the last line of stdout, one JSON object
 * {"correct","attempted","failed","metrics"}. --trace 1 then adds a
 * traced pass (spans around the program's public calls, written to
 * DIR/traces/) and reports the per-layer metrics instead of the
 * end-to-end ones. The exit code is 0 only when every check passed.
 * README.md beside this directory describes the workloads and maps
 * each metric to the layer and workload it gauges.
 *
 * Test hooks: --dump-requests N prints the first N request bodies of
 * each of the workload's streams and exits; --corrupt-result-byte
 * flips one byte of a sampled wire result before the check.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "cachestore/store.hpp"
#include "check.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "daemon_proc.hpp"
#include "loadgen.hpp"
#include "server/wire.hpp"
#include "traced.hpp"
#include "workload.hpp"

extern char** environ;

namespace cosabench {
namespace {

namespace fs = std::filesystem;

/** Set-ups per untraced run; setup_s is their median. A cold set-up
 *  is only a daemon start (milliseconds), so it is repeated more. */
constexpr int kWarmSetupReps = 3;
constexpr int kColdSetupReps = 15;
/** Interactive arrivals per second on mixed-tiers (open loop). */
constexpr double kInteractiveRate = 200.0;
/** Requests of each stream whose results are checked in-process. */
constexpr int kCheckSamples = 3;

struct Options
{
    WorkloadKind workload = WorkloadKind::ColdSolve;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".bench_build/cosabench-work";
    int dump_requests = 0;
    bool corrupt = false;
};

/** A run that cannot go on; main() reports it after every daemon the
 *  run started has been stopped. */
struct Fatal : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

[[noreturn]] void
die(const std::string& message)
{
    throw Fatal(message);
}

Options
parseOptions(int argc, char** argv)
{
    Options options;
    bool have_workload = false;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        const auto value = [&]() -> std::string {
            if (a + 1 >= argc)
                die("missing value for " + flag);
            return argv[++a];
        };
        if (flag == "--workload") {
            const std::string name = value();
            if (!parseWorkload(name, &options.workload))
                die("unknown workload '" + name +
                    "' (cold-solve, warm-hits, mixed-tiers)");
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value());
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value());
        } else if (flag == "--trace") {
            options.trace = value() != "0";
        } else if (flag == "--work-dir") {
            options.work_dir = value();
        } else if (flag == "--dump-requests") {
            options.dump_requests = std::stoi(value());
        } else if (flag == "--corrupt-result-byte") {
            options.corrupt = true;
        } else {
            die("unknown flag '" + flag + "'");
        }
    }
    if (!have_workload)
        die("--workload is required");
    if (!(options.seconds > 0.0))
        die("--seconds must be > 0");
    return options;
}

/** Drop every COSA* variable (failpoints, tracing, basis mode, time
 *  limits, quick mode, tenants, ...) so nothing inherited changes what
 *  the daemon child or the in-process checks compute. */
void
clearCosaEnvironment()
{
    std::vector<std::string> names;
    for (char** env = environ; *env; ++env) {
        const std::string entry = *env;
        if (entry.rfind("COSA", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string& name : names)
        ::unsetenv(name.c_str());
}

bool
releaseBuild()
{
#ifdef NDEBUG
    return std::strcmp(COSABENCH_BUILD_TYPE, "Release") == 0;
#else
    return false;
#endif
}

/** Metric name -> unit, for every metric either mode prints. */
const std::map<std::string, std::string>&
units()
{
    static const std::map<std::string, std::string> table = {
        {"setup_s", "s"},
        {"jobs_per_s", "1/s"},
        {"job_p50_ms", "ms"},
        {"job_p90_ms", "ms"},
        {"batch_p50_ms", "ms"},
        {"cpu_ms_per_job", "ms"},
        {"peak_rss_mb", "MiB"},
        {"sched_cycles_geomean", "cycles"},
        {"sched_energy_geomean_pj", "pJ"},
        {"server.decode_us_p50", "us"},
        {"server.encode_us_p50", "us"},
        {"server.result_bytes", "B"},
        {"server.submit_rtt_ms_p50", "ms"},
        {"server.result_rtt_ms_p50", "ms"},
        {"server.share", "ratio"},
        {"engine.job_ms_p50", "ms"},
        {"engine.queue_wait_ms_mean", "ms"},
        {"engine.dedup_ratio", "ratio"},
        {"engine.cache_hit_ratio", "ratio"},
        {"engine.executor_steals", "count"},
        {"engine.share", "ratio"},
        {"engine.residual_share", "ratio"},
        {"cachestore.lookup_us_p50", "us"},
        {"cachestore.lookups", "count"},
        {"cachestore.insert_us_p50", "us"},
        {"cachestore.inserts", "count"},
        {"cachestore.neighbor_us_p50", "us"},
        {"cachestore.neighbor_calls", "count"},
        {"cachestore.open_ms", "ms"},
        {"cachestore.log_bytes", "B"},
        {"cachestore.share", "ratio"},
        {"cosa.formulation_ms", "ms"},
        {"cosa.schedule_ms_p50", "ms"},
        {"cosa.pick_candidates", "count"},
        {"cosa.share", "ratio"},
        {"solver.presolve_ms", "ms"},
        {"solver.root_lp_ms", "ms"},
        {"solver.tree_ms", "ms"},
        {"solver.lp_iterations", "count"},
        {"solver.mip_nodes", "count"},
        {"solver.iters_per_ms", "1/ms"},
        {"solver.lu_factorizations", "count"},
        {"solver.lu_eta_updates", "count"},
        {"solver.lu_refactor_fill", "count"},
        {"solver.lu_refactor_unstable", "count"},
        {"solver.gap_closed_ratio", "ratio"},
        {"solver.warm_start_accept_ratio", "ratio"},
        {"solver.share", "ratio"},
        {"model.evals", "count"},
        {"model.eval_us_mean", "us"},
        {"model.share", "ratio"},
        {"loadgen.late_ms_p99", "ms"},
        {"trace.overhead_ratio", "ratio"},
    };
    return table;
}

std::vector<double>
latencies(const std::vector<JobRecord>& records)
{
    std::vector<double> out;
    for (const JobRecord& record : records) {
        if (record.ok)
            out.push_back(record.latencyMs());
    }
    return out;
}

/** Seeded distinct indices in [0, bound). */
std::set<std::int64_t>
sampleIndices(std::uint64_t seed, std::uint64_t stream, std::int64_t bound,
              int count)
{
    cosa::Rng rng(seed * 0x2545F4914F6CDD1DULL + stream);
    std::set<std::int64_t> out;
    while (static_cast<int>(out.size()) < std::min<std::int64_t>(count, bound))
        out.insert(static_cast<std::int64_t>(
            rng.nextBelow(static_cast<std::uint64_t>(bound))));
    return out;
}

std::vector<std::string>
keysOf(const std::vector<cosa::LayerSpec>& layers)
{
    std::set<std::string> keys;
    for (const cosa::LayerSpec& layer : layers)
        keys.insert(layer.canonicalKey());
    return {keys.begin(), keys.end()};
}

/** One benchmark run: set-up, the timed window, the checks, the traced
 *  pass when asked for, and the report. */
class Run
{
  public:
    Run(Options options, std::string dir)
        : options_(std::move(options)), dir_(std::move(dir))
    {
    }

    int execute();

  private:
    void setUp();
    void drive();
    void wirePass();
    void verify();
    MetricList perLayerMetrics();
    MetricList endToEndMetrics();
    void report(const MetricList& metrics);

    bool warm() const
    {
        return options_.workload != WorkloadKind::ColdSolve;
    }
    std::string cacheDir(int rep) const
    {
        return dir_ + "/cache-" + std::to_string(rep);
    }
    void fail(std::string why)
    {
        std::cerr << "cosabench: FAILED: " << why << std::endl;
        errors_.push_back(std::move(why));
    }

    Options options_;
    std::string dir_;
    int clients_ = 1;
    DaemonProcess daemon_;
    int last_rep_ = 0;
    std::vector<double> setup_s_;
    std::string warm_results_;
    std::vector<std::string> errors_;

    // The timed window.
    std::vector<JobRecord> fg_;     //!< the job_p50 / job_p90 population
    std::vector<JobRecord> misses_; //!< mixed-tiers' batch stream
    double cpu_ms_ = 0.0, rss_mb_ = 0.0;
    std::set<std::int64_t> fg_sample_, miss_sample_;

    // The traced run's wire pass.
    std::vector<TracedRequest> traced_;
    Clock::time_point wire_origin_;
    std::int64_t check_failures_ = 0;
};

void
Run::setUp()
{
    const int reps =
        options_.trace ? 1 : (warm() ? kWarmSetupReps : kColdSetupReps);
    for (int rep = 0; rep < reps; ++rep) {
        daemon_.stop();
        const Clock::time_point start = Clock::now();
        const std::string error = daemon_.start(
            COSABENCH_COSAD, cacheDir(rep),
            dir_ + "/cosad-" + std::to_string(rep) + ".log");
        if (!error.empty())
            die(error);
        if (warm()) {
            Connection connection(daemon_.port());
            JobRecord record;
            runJob(connection, warmupBody(), start, true, &record);
            if (!record.ok)
                die("warm-up job failed: " + record.error);
            if (rep == 0)
                warm_results_ = record.results;
            else if (record.results != warm_results_)
                fail("warm-up results differ between set-ups: " +
                     firstDifference(record.results, warm_results_));
        }
        setup_s_.push_back(secondsSince(start));
        last_rep_ = rep;
    }
}

void
Run::drive()
{
    const std::uint64_t seed = options_.seed;
    const double end = options_.seconds;
    const int port = daemon_.port();
    const double cpu_start = daemon_.cpuMs();
    const Clock::time_point origin = Clock::now();
    switch (options_.workload) {
      case WorkloadKind::ColdSolve: {
        // The first pass over the suite rows always completes, so every
        // run scores the same distinct layers.
        const auto rows = static_cast<std::int64_t>(suiteRows().size());
        fg_sample_ = sampleIndices(seed, 11, rows, kCheckSamples);
        fg_ = driveLoop(
            port, {clients_, 0.0, rows},
            [seed](std::int64_t i) { return coldRequest(seed, i); }, origin,
            end, [](std::int64_t) { return true; });
        break;
      }
      case WorkloadKind::WarmHits: {
        fg_sample_ = sampleIndices(seed, 12, 256, kCheckSamples);
        fg_ = driveLoop(
            port, {clients_, 0.0, 0},
            [seed](std::int64_t i) { return warmRequest(seed, i, false); },
            origin, end,
            [this](std::int64_t i) { return fg_sample_.count(i) > 0; });
        break;
      }
      case WorkloadKind::MixedTiers: {
        fg_sample_ = sampleIndices(seed, 13, 200, kCheckSamples);
        miss_sample_ = {static_cast<std::int64_t>(seed % kProbeMisses),
                        kProbeMisses + static_cast<std::int64_t>(seed % 2)};
        std::thread batch_client([&] {
            misses_ = driveLoop(
                port, {1, 0.0, kProbeMisses},
                [seed](std::int64_t j) { return missRequest(seed, j); },
                origin, end, [](std::int64_t) { return true; });
        });
        fg_ = driveLoop(
            port, {std::max(1, clients_ - 1), kInteractiveRate, 0},
            [seed](std::int64_t i) { return warmRequest(seed, i, true); },
            origin, end,
            [this](std::int64_t i) { return fg_sample_.count(i) > 0; });
        batch_client.join();
        break;
      }
    }
    cpu_ms_ = daemon_.cpuMs() - cpu_start;
    rss_mb_ = daemon_.peakRssMb();
}

void
Run::wirePass()
{
    const std::uint64_t seed = options_.seed;
    std::vector<std::string> bodies;
    switch (options_.workload) {
      case WorkloadKind::ColdSolve:
        for (std::int64_t t = 0; t < 4; ++t)
            bodies.push_back(coldRequest(seed, t).body);
        break;
      case WorkloadKind::WarmHits:
        for (std::int64_t t = 0; t < 24; ++t)
            bodies.push_back(warmRequest(seed, t, false).body);
        break;
      case WorkloadKind::MixedTiers: {
        // Fresh misses the daemon has not solved yet, then hits.
        const auto next = static_cast<std::int64_t>(misses_.size());
        for (std::int64_t t = 0; t < 3; ++t)
            bodies.push_back(missRequest(seed, next + t).body);
        for (std::int64_t t = 0; t < 12; ++t)
            bodies.push_back(warmRequest(seed, t, true).body);
        break;
      }
    }
    // The in-process passes must find the cache as the daemon had it
    // before this pass: one copy for the traced pass, one for the
    // untraced one.
    if (warm()) {
        for (const char* copy : {"/trace-cache", "/plain-cache"})
            fs::copy(cacheDir(last_rep_), dir_ + copy,
                     fs::copy_options::recursive);
    }
    Connection connection(daemon_.port());
    wire_origin_ = Clock::now();
    for (const std::string& body : bodies) {
        TracedRequest request;
        request.body = body;
        runJob(connection, body, wire_origin_, true, &request.wire);
        request.wire.due = request.wire.sent;
        if (!request.wire.ok)
            fail("traced wire job failed: " + request.wire.error);
        traced_.push_back(std::move(request));
    }
}

void
Run::verify()
{
    std::vector<Sample> samples;
    for (const JobRecord& record : fg_) {
        if (record.ok && fg_sample_.count(record.index))
            samples.push_back({record.body, record.results, ""});
    }
    for (const JobRecord& record : misses_) {
        if (record.ok && miss_sample_.count(record.index))
            samples.push_back(
                {record.body, record.results,
                 missLayer(options_.seed, record.index).canonicalKey()});
    }
    if (samples.empty()) {
        fail("no sampled job completed, nothing was checked");
        return;
    }
    if (options_.corrupt) {
        std::string& wire = samples.front().wire;
        wire[wire.size() / 2] ^= 0x01;
    }
    std::vector<cosa::ScheduleCache::ExportedEntry> entries;
    if (!misses_.empty()) {
        cosa::cachestore::StoreConfig config;
        config.dir = cacheDir(last_rep_);
        auto store = cosa::cachestore::PersistentScheduleCache::open(config);
        if (!store.ok())
            die("cannot reopen the daemon's cache: " +
                store.status().message());
        entries = store.value()->exportEntries();
    }
    for (const std::string& error : verifySamples(samples, entries)) {
        ++check_failures_;
        fail("byte-identity check: " + error);
    }
    std::cerr << "cosabench: checked " << samples.size()
              << " sampled results against in-process solves"
              << std::endl;
}

void
Run::report(const MetricList& metrics)
{
    std::int64_t attempted = 0, failed = 0;
    const auto count = [&](const std::vector<JobRecord>& records) {
        for (const JobRecord& record : records) {
            ++attempted;
            if (!record.ok) {
                ++failed;
                if (failed <= 5)
                    std::cerr << "cosabench: job " << record.index
                              << " failed: " << record.error << std::endl;
            }
        }
    };
    count(fg_);
    count(misses_);
    failed += check_failures_;
    const bool correct = failed == 0 && errors_.empty();

    std::cerr << "cosabench: " << workloadName(options_.workload)
              << " seed " << options_.seed << ": " << attempted
              << " jobs attempted, " << failed << " failed (failed_ratio "
              << (attempted ? static_cast<double>(failed) / attempted : 0.0)
              << ")" << std::endl;
    cosa::json::Value values = cosa::json::Value::object();
    for (const auto& [name, value] : metrics) {
        const std::string& unit = units().at(name);
        std::cerr << "  " << name << " = " << value << " " << unit << "\n";
        cosa::json::Value metric = cosa::json::Value::object();
        metric.set("value", value);
        metric.set("unit", unit);
        values.set(name, std::move(metric));
    }
    cosa::json::Value line = cosa::json::Value::object();
    line.set("correct", correct);
    line.set("attempted", attempted);
    line.set("failed", failed);
    line.set("metrics", std::move(values));
    std::cerr.flush();
    std::cout << line.dump() << std::endl;
}

MetricList
Run::perLayerMetrics()
{
    const std::string spans_dir = options_.work_dir + "/traces";
    fs::create_directories(spans_dir);
    TraceSetup setup;
    if (warm()) {
        setup.trace_cache = dir_ + "/trace-cache";
        setup.plain_cache = dir_ + "/plain-cache";
    }
    setup.wire_origin = wire_origin_;
    setup.spans_path = spans_dir + "/" +
                       workloadName(options_.workload) + "-seed" +
                       std::to_string(options_.seed) + ".json";
    TraceReport traced = tracedPass(traced_, setup);
    for (std::string& error : traced.errors)
        fail(std::move(error));
    MetricList metrics = std::move(traced.metrics);
    // How late the open-loop generator sent (0 for closed loops).
    std::vector<double> late_ms;
    if (options_.workload == WorkloadKind::MixedTiers) {
        for (const JobRecord& record : fg_)
            late_ms.push_back((record.sent - record.due) * 1000.0);
    }
    metrics.emplace_back("loadgen.late_ms_p99",
                         percentile(late_ms, 0.99));
    return metrics;
}

MetricList
Run::endToEndMetrics()
{
    // Schedule quality over the workload's fixed set of distinct
    // layers, scored from returned result bytes.
    std::map<std::string, LayerScore> scores;
    std::vector<std::string> keys;
    std::vector<std::string> sources;
    if (warm())
        sources.push_back(warm_results_);
    for (const auto* records : {&fg_, &misses_}) {
        for (const JobRecord& record : *records) {
            if (record.ok && !record.results.empty())
                sources.push_back(record.results);
        }
    }
    for (const std::string& results : sources) {
        const std::string error = addScores(results, &scores);
        if (!error.empty())
            fail(error);
    }
    switch (options_.workload) {
      case WorkloadKind::ColdSolve:
        keys = keysOf(suiteRows());
        break;
      case WorkloadKind::WarmHits:
        keys = keysOf(warmLayers());
        break;
      case WorkloadKind::MixedTiers: {
        std::vector<cosa::LayerSpec> layers = warmLayers();
        for (std::int64_t j = 0; j < kProbeMisses; ++j)
            layers.push_back(missLayer(options_.seed, j));
        keys = keysOf(layers);
        break;
      }
    }
    double cycles = 0.0, energy = 0.0;
    const std::string error = geomeans(scores, keys, &cycles, &energy);
    if (!error.empty())
        fail(error);

    // Batch-tier jobs are every cold solve, the named-network hits of
    // warm-hits and the misses of mixed-tiers. Throughput is the jobs
    // completed within the window over the time the last of them
    // completed.
    const std::vector<double> fg_ms = latencies(fg_);
    std::vector<double> batch_ms;
    std::int64_t completed = 0, in_window = 0;
    double last_done = 0.0;
    for (const auto* records : {&fg_, &misses_}) {
        for (const JobRecord& record : *records) {
            if (!record.ok)
                continue;
            ++completed;
            if (record.batch)
                batch_ms.push_back(record.latencyMs());
            if (record.done <= options_.seconds) {
                ++in_window;
                last_done = std::max(last_done, record.done);
            }
        }
    }
    const auto beyond =
        static_cast<std::int64_t>(static_cast<double>(fg_ms.size()) * 0.1);
    std::cerr << "cosabench: job_p50_ms and job_p90_ms are over "
              << fg_ms.size() << " jobs (" << beyond
              << " beyond p90); batch_p50_ms is over "
              << batch_ms.size() << " batch-tier jobs; "
              << scores.size() << " distinct layers scored, "
              << keys.size() << " in the quality set" << std::endl;
    if (beyond < 10)
        std::cerr << "cosabench: warning: fewer than ten samples lie "
                     "beyond p90" << std::endl;
    // Stalls: jobs slower than ten times the median, with when they
    // were due, so a tail can be matched to what ran beside it.
    const double p50 = percentile(fg_ms, 0.5);
    std::int64_t stalled = 0;
    double first_stall = -1.0, worst = 0.0;
    for (const JobRecord& record : fg_) {
        if (!record.ok || record.latencyMs() <= 10.0 * p50)
            continue;
        if (stalled++ == 0)
            first_stall = record.due;
        worst = std::max(worst, record.latencyMs());
    }
    if (stalled > 0)
        std::cerr << "cosabench: " << stalled
                  << " jobs took over ten times the median (worst "
                  << worst << " ms; first due at " << first_stall
                  << " s)" << std::endl;
    return {
        {"setup_s", percentile(setup_s_, 0.5)},
        {"jobs_per_s",
         last_done > 0.0 ? static_cast<double>(in_window) / last_done
                         : 0.0},
        {"job_p50_ms", percentile(fg_ms, 0.5)},
        {"job_p90_ms", percentile(fg_ms, 0.9)},
        {"batch_p50_ms", percentile(batch_ms, 0.5)},
        {"cpu_ms_per_job",
         completed ? cpu_ms_ / static_cast<double>(completed) : 0.0},
        {"peak_rss_mb", rss_mb_},
        {"sched_cycles_geomean", cycles},
        {"sched_energy_geomean_pj", energy},
    };
}

int
Run::execute()
{
    // One generator thread per core, up to 4 cores, minus one core left
    // to the daemon's event loop and handlers: with every core busy,
    // job times swing far more from run to run.
    const int cores = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    clients_ = std::max(1, cores - 1);
    setUp();
    drive();
    if (options_.trace)
        wirePass();
    daemon_.stop();
    verify();

    const MetricList metrics =
        options_.trace ? perLayerMetrics() : endToEndMetrics();
    report(metrics);
    return errors_.empty() && check_failures_ == 0 ? 0 : 1;
}

} // namespace
} // namespace cosabench

int
main(int argc, char** argv)
{
    using namespace cosabench;
    std::signal(SIGPIPE, SIG_IGN);
    clearCosaEnvironment();
    if (!releaseBuild()) {
        std::cerr << "cosabench: refusing to measure a non-Release build "
                     "(built as '" COSABENCH_BUILD_TYPE "'); configure with "
                     "-DCMAKE_BUILD_TYPE=Release" << std::endl;
        return 2;
    }
    Options options;
    try {
        options = parseOptions(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "cosabench: " << e.what() << std::endl;
        return 2;
    }

    if (options.dump_requests > 0) {
        const std::int64_t n = options.dump_requests;
        for (std::int64_t i = 0; i < n; ++i) {
            switch (options.workload) {
              case WorkloadKind::ColdSolve:
                std::cout << coldRequest(options.seed, i).body << "\n";
                break;
              case WorkloadKind::WarmHits:
                std::cout << warmRequest(options.seed, i, false).body << "\n";
                break;
              case WorkloadKind::MixedTiers:
                std::cout << warmRequest(options.seed, i, true).body << "\n"
                          << missRequest(options.seed, i).body << "\n";
                break;
            }
        }
        return 0;
    }

    const std::string dir = options.work_dir + "/run-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    int rc = 1;
    try {
        Run run(options, dir);
        rc = run.execute();
    } catch (const std::exception& e) {
        std::cerr << "cosabench: " << e.what() << std::endl;
    }
    std::filesystem::remove_all(dir);
    return rc;
}
