#include "traced.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>

#include "cachestore/store.hpp"
#include "check.hpp"
#include "cosa/formulation.hpp"
#include "server/wire.hpp"
#include "spans.hpp"

namespace cosabench {

namespace {

/** Engine-side per-request accounting from the results of one job. */
struct JobTotals
{
    std::int64_t layers = 0, unique = 0, hits = 0;
    std::int64_t hints = 0, hint_hits = 0;
};

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

std::shared_ptr<cosa::cachestore::PersistentScheduleCache>
openStore(const std::string& dir)
{
    cosa::cachestore::StoreConfig config;
    config.dir = dir;
    auto opened = cosa::cachestore::PersistentScheduleCache::open(config);
    if (!opened.ok())
        throw std::runtime_error("cannot open the cache copy " + dir + ": " +
                                 opened.status().message());
    return opened.value();
}

} // namespace

TraceReport
tracedPass(std::vector<TracedRequest>& traced, const TraceSetup& setup)
{
    TraceReport out;
    const Clock::time_point origin = setup.wire_origin;
    SpanSink sink(origin);

    std::shared_ptr<cosa::cachestore::PersistentScheduleCache> trace_store,
        plain_store;
    double open_ms = 0.0;
    if (!setup.trace_cache.empty()) {
        const Clock::time_point start = Clock::now();
        trace_store = openStore(setup.trace_cache);
        open_ms = msSince(start);
        plain_store = openStore(setup.plain_cache);
    }

    cosa::SchedulerService service;
    std::vector<cosa::solver::MipResult> mips;
    std::vector<double> formulation_ms, schedule_ms;
    JobTotals totals;
    std::int64_t solved_layers = 0;

    for (std::size_t r = 0; r < traced.size(); ++r) {
        TracedRequest& request = traced[r];
        const auto rid = static_cast<std::int64_t>(r);
        // The wire pass, as spans: one root per request, three hops.
        const auto at = [&](double s) {
            return origin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(s));
        };
        const JobRecord& wire = request.wire;
        const double t_submit = wire.sent + wire.submit_ms / 1000.0;
        const double t_events = t_submit + wire.wait_ms / 1000.0;
        const std::int64_t root = sink.record("wire.job", rid, -1,
                                              at(wire.sent), at(wire.done));
        sink.record("server.submit_rtt", rid, root, at(wire.sent),
                    at(t_submit));
        sink.record("wire.events", rid, root, at(t_submit), at(t_events));
        sink.record("server.result_rtt", rid, root, at(t_events),
                    at(wire.done));

        // The in-process pass with both decorators, under its own root.
        const std::int64_t local = sink.newId();
        const std::int64_t job_span = sink.newId();
        const Clock::time_point t0 = Clock::now();
        auto decoded = decodeRequest(request.body);
        const Clock::time_point t1 = Clock::now();
        if (!decoded.ok()) {
            out.errors.push_back("traced request does not decode");
            continue;
        }
        sink.record("server.decode", rid, local, t0, t1);
        cosa::ScheduleRequest job = std::move(decoded).value();
        const SpanScope scope{&sink, rid, job_span};
        job.evaluator = std::make_shared<TimedEvaluator>(
            std::make_shared<cosa::AnalyticalEvaluator>(), scope);
        if (trace_store && job.use_cache)
            job.cache = std::make_shared<TimedCache>(trace_store, scope);
        const cosa::ScheduleRequest replay = job;
        cosa::SubmitResult submitted = service.submit(std::move(job));
        if (!submitted.accepted()) {
            out.errors.push_back("traced submit rejected");
            continue;
        }
        const std::vector<cosa::NetworkResult> results =
            submitted.job().wait();
        const Clock::time_point t2 = Clock::now();
        sink.record("engine.job", rid, local, t1, t2, job_span);
        const std::string bytes = cosa::server::resultsToJson(results).dump();
        const Clock::time_point t3 = Clock::now();
        sink.record("server.encode", rid, local, t2, t3);
        request.decode_us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        request.engine_ms =
            std::chrono::duration<double, std::milli>(t2 - t1).count();
        request.encode_us =
            std::chrono::duration<double, std::micro>(t3 - t2).count();
        request.traced_ms =
            std::chrono::duration<double, std::milli>(t3 - t0).count();
        request.result_bytes = bytes.size();
        if (bytes != request.wire.results)
            out.errors.push_back("traced in-process bytes differ from the "
                                 "wire bytes of the same request");

        // Per-layer solver work, and a direct formulation + solve of
        // every layer this job solved.
        for (const cosa::NetworkResult& net : results) {
            totals.layers += net.num_layers;
            totals.unique += net.num_unique;
            totals.hits += net.num_cache_hits;
            totals.hints += net.search.warm_starts_installed;
            totals.hint_hits += net.search.warm_start_hits;
            for (const cosa::LayerScheduleResult& lr : net.layers) {
                if (lr.from_cache || lr.deduplicated || !lr.result.found)
                    continue;
                const cosa::SearchStats& stats = lr.result.stats;
                ++solved_layers;
                request.search_ms += stats.search_time_sec * 1000.0;
                request.solver_ms += (stats.presolve_time_sec +
                                      stats.root_lp_time_sec +
                                      stats.tree_time_sec) *
                                     1000.0;
                schedule_ms.push_back(stats.search_time_sec * 1000.0);

                const Clock::time_point f0 = Clock::now();
                cosa::CosaFormulation formulation(lr.layer, replay.arch,
                                                  replay.cosa);
                const Clock::time_point f1 = Clock::now();
                sink.record("cosa.formulation", rid, local, f0, f1);
                formulation_ms.push_back(
                    std::chrono::duration<double, std::milli>(f1 - f0)
                        .count());
                // Mirror the engine's warm start: the cache's nearest
                // neighbor, refit and validated, as a MIP start.
                if (trace_store && replay.use_cache &&
                    replay.warm_start_hints) {
                    auto neighbor = trace_store->nearestNeighbor(
                        replay.arch.fingerprint(),
                        cosa::schedulerConfigKey(replay),
                        replay.evaluator->fingerprint(), lr.layer);
                    if (neighbor) {
                        std::vector<double> values =
                            formulation.encodeMapping(neighbor->mapping);
                        const cosa::Mapping refit =
                            formulation.extractMapping(values);
                        if (cosa::validateMapping(refit, lr.layer,
                                                  replay.arch)
                                .valid)
                            formulation.model().setStart(std::move(values));
                    }
                }
                cosa::solver::MipResult mip;
                formulation.solve(&mip);
                sink.record("solver.solve", rid, local, f1, Clock::now());
                mips.push_back(std::move(mip));
            }
        }
        sink.record("inprocess.job", rid, -1, t0, Clock::now(), local);
    }
    const cosa::ServiceStats service_stats = service.stats();

    // The untraced pass: same requests, no decorators, no spans.
    for (TracedRequest& request : traced) {
        const Clock::time_point t0 = Clock::now();
        auto decoded = decodeRequest(request.body);
        if (!decoded.ok())
            continue;
        cosa::ScheduleRequest job = std::move(decoded).value();
        if (plain_store && job.use_cache)
            job.cache = plain_store;
        cosa::SubmitResult submitted = service.submit(std::move(job));
        if (!submitted.accepted())
            continue;
        const std::string bytes =
            cosa::server::resultsToJson(submitted.job().wait()).dump();
        request.plain_ms = msSince(t0);
        if (bytes != request.wire.results)
            out.errors.push_back("untraced in-process bytes differ from the "
                                 "wire bytes of the same request");
    }

    // Per-request attribution of the wire latency.
    const std::vector<Span> spans = sink.spans();
    std::map<std::string, std::vector<double>> span_ms;
    std::int64_t search_evals = 0;
    for (const Span& span : spans) {
        span_ms[span.name].push_back(span.ms());
        if (span.request < 0)
            continue;
        TracedRequest& request =
            traced[static_cast<std::size_t>(span.request)];
        if (span.name.rfind("cachestore.", 0) == 0)
            request.cache_ms += span.ms();
        else if (span.name.rfind("model.", 0) == 0)
            request.model_ms += span.ms();
        if (span.name == "model.search_eval" && request.search_ms > 0.0)
            ++search_evals;
    }
    std::map<std::string, std::vector<double>> shares;
    std::cerr << "cosabench: per-request shares of the wire latency\n"
              << "  req   wire_ms  server  engine cachest    cosa  solver"
                 "   model residual\n";
    for (std::size_t r = 0; r < traced.size(); ++r) {
        const TracedRequest& request = traced[r];
        const double e2e = request.wire.latencyMs();
        if (!(e2e > 0.0))
            continue;
        // The two HTTP exchanges are the server's (daemon-side decode
        // and encode run inside them); the event wait is the engine's
        // job, whose parts the in-process pass measured. What the
        // in-process job does not explain is the residual.
        const double server = request.wire.submit_ms + request.wire.result_ms;
        const double solver = request.solver_ms;
        const double model = request.model_ms;
        const double cosa_self = request.search_ms - solver - model;
        const double cache = request.cache_ms;
        const double engine = request.engine_ms - cache - request.search_ms;
        const double residual = e2e - server - request.engine_ms;
        const std::pair<const char*, double> parts[] = {
            {"server", server}, {"engine", engine},   {"cachestore", cache},
            {"cosa", cosa_self}, {"solver", solver}, {"model", model},
            {"residual", residual}};
        char line[160];
        std::snprintf(line, sizeof(line), "  %3zu %9.3f", r, e2e);
        std::cerr << line;
        for (const auto& [name, ms] : parts) {
            shares[name].push_back(ms / e2e);
            std::snprintf(line, sizeof(line), " %7.3f", ms / e2e);
            std::cerr << line;
        }
        std::cerr << "\n";
    }

    std::vector<double> decode_us, encode_us, bytes, submit_ms, result_ms,
        engine_ms, traced_ms, plain_ms;
    for (const TracedRequest& request : traced) {
        decode_us.push_back(request.decode_us);
        encode_us.push_back(request.encode_us);
        bytes.push_back(static_cast<double>(request.result_bytes));
        submit_ms.push_back(request.wire.submit_ms);
        result_ms.push_back(request.wire.result_ms);
        engine_ms.push_back(request.engine_ms);
        traced_ms.push_back(request.traced_ms);
        plain_ms.push_back(request.plain_ms);
    }
    const auto us = [&](const char* name) {
        std::vector<double> values = span_ms[name];
        for (double& v : values)
            v *= 1000.0;
        return values;
    };
    double started = 0.0, wait_sec = 0.0;
    for (const auto& tier : service_stats.tiers) {
        started += static_cast<double>(tier.submitted - tier.queued_now);
        wait_sec += tier.total_queue_wait_sec;
    }
    std::uint64_t log_bytes = 0;
    if (trace_store) {
        for (const auto& shard : trace_store->storeStats().shards)
            log_bytes += shard.log_bytes;
    }
    double iterations = 0.0, nodes = 0.0, solve_ms = 0.0;
    double factorizations = 0.0, etas = 0.0, fill = 0.0, unstable = 0.0;
    double optimal = 0.0;
    std::vector<double> presolve_ms, root_ms, tree_ms;
    for (const cosa::solver::MipResult& mip : mips) {
        presolve_ms.push_back(mip.presolve_time_sec * 1000.0);
        root_ms.push_back(mip.root_lp_time_sec * 1000.0);
        tree_ms.push_back(mip.tree_time_sec * 1000.0);
        iterations += static_cast<double>(mip.lp_iterations);
        nodes += static_cast<double>(mip.nodes);
        solve_ms += mip.solve_time_sec * 1000.0;
        factorizations += static_cast<double>(mip.basis.factorizations);
        etas += static_cast<double>(mip.basis.eta_updates);
        fill += static_cast<double>(mip.basis.fill_refactor_requests);
        unstable += static_cast<double>(mip.basis.unstable_updates);
        if (mip.status == cosa::solver::Status::Optimal)
            optimal += 1.0;
    }
    const std::vector<double> model_us = [&] {
        std::vector<double> all = us("model.eval");
        const std::vector<double> search = us("model.search_eval");
        all.insert(all.end(), search.begin(), search.end());
        return all;
    }();
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double plain_p50 = percentile(plain_ms, 0.5);

    out.metrics = {
        {"server.decode_us_p50", percentile(decode_us, 0.5)},
        {"server.encode_us_p50", percentile(encode_us, 0.5)},
        {"server.result_bytes", percentile(bytes, 0.5)},
        {"server.submit_rtt_ms_p50", percentile(submit_ms, 0.5)},
        {"server.result_rtt_ms_p50", percentile(result_ms, 0.5)},
        {"server.share", percentile(shares["server"], 0.5)},
        {"engine.job_ms_p50", percentile(engine_ms, 0.5)},
        {"engine.queue_wait_ms_mean", ratio(wait_sec * 1000.0, started)},
        {"engine.dedup_ratio",
         ratio(static_cast<double>(totals.layers - totals.unique),
               static_cast<double>(totals.layers))},
        {"engine.cache_hit_ratio",
         ratio(static_cast<double>(totals.hits),
               static_cast<double>(totals.unique))},
        {"engine.executor_steals",
         static_cast<double>(service_stats.executor.steals)},
        {"engine.share", percentile(shares["engine"], 0.5)},
        {"engine.residual_share", percentile(shares["residual"], 0.5)},
        {"cachestore.lookup_us_p50",
         percentile(us("cachestore.lookup"), 0.5)},
        {"cachestore.lookups",
         static_cast<double>(span_ms["cachestore.lookup"].size())},
        {"cachestore.insert_us_p50",
         percentile(us("cachestore.insert"), 0.5)},
        {"cachestore.inserts",
         static_cast<double>(span_ms["cachestore.insert"].size())},
        {"cachestore.neighbor_us_p50",
         percentile(us("cachestore.neighbor"), 0.5)},
        {"cachestore.neighbor_calls",
         static_cast<double>(span_ms["cachestore.neighbor"].size())},
        {"cachestore.open_ms", open_ms},
        {"cachestore.log_bytes", static_cast<double>(log_bytes)},
        {"cachestore.share", percentile(shares["cachestore"], 0.5)},
        {"cosa.formulation_ms", percentile(formulation_ms, 0.5)},
        {"cosa.schedule_ms_p50", percentile(schedule_ms, 0.5)},
        {"cosa.pick_candidates",
         ratio(static_cast<double>(search_evals),
               static_cast<double>(solved_layers))},
        {"cosa.share", percentile(shares["cosa"], 0.5)},
        {"solver.presolve_ms", percentile(presolve_ms, 0.5)},
        {"solver.root_lp_ms", percentile(root_ms, 0.5)},
        {"solver.tree_ms", percentile(tree_ms, 0.5)},
        {"solver.lp_iterations", iterations},
        {"solver.mip_nodes", nodes},
        {"solver.iters_per_ms", ratio(iterations, solve_ms)},
        {"solver.lu_factorizations", factorizations},
        {"solver.lu_eta_updates", etas},
        {"solver.lu_refactor_fill", fill},
        {"solver.lu_refactor_unstable", unstable},
        {"solver.gap_closed_ratio",
         ratio(optimal, static_cast<double>(mips.size()))},
        {"solver.warm_start_accept_ratio",
         ratio(static_cast<double>(totals.hint_hits),
               static_cast<double>(totals.hints))},
        {"solver.share", percentile(shares["solver"], 0.5)},
        {"model.evals", static_cast<double>(model_us.size())},
        {"model.eval_us_mean", mean(model_us)},
        {"model.share", percentile(shares["model"], 0.5)},
        {"trace.overhead_ratio",
         ratio(percentile(traced_ms, 0.5), plain_p50)},
    };

    std::ofstream(setup.spans_path) << sink.toJson() << "\n";
    std::cerr << "cosabench: " << spans.size() << " spans written to "
              << setup.spans_path << std::endl;
    return out;
}

} // namespace cosabench
