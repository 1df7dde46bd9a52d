#include "check.hpp"

#include <cmath>

#include "common/json.hpp"
#include "server/wire.hpp"

namespace cosabench {

cosa::StatusOr<cosa::ScheduleRequest>
decodeRequest(const std::string& body)
{
    auto parsed = cosa::json::Value::parse(body);
    if (!parsed.ok())
        return parsed.status();
    return cosa::server::requestFromJson(parsed.value(), "");
}

std::string
addScores(const std::string& results,
          std::map<std::string, LayerScore>* scores)
{
    auto parsed = cosa::json::Value::parse(results);
    if (!parsed.ok())
        return "result bytes do not parse: " + parsed.status().message();
    for (const cosa::json::Value& net : parsed.value().items()) {
        const cosa::json::Value* layers = net.find("layers");
        if (!layers)
            return "a network has no layers";
        for (const cosa::json::Value& entry : layers->items()) {
            const cosa::json::Value* shape = entry.find("layer");
            const cosa::json::Value* eval = entry.find("eval");
            if (!shape || !eval || !entry.getBool("found", false))
                return "a layer has no schedule";
            cosa::LayerSpec layer;
            layer.r = shape->getInt("r", 0);
            layer.s = shape->getInt("s", 0);
            layer.p = shape->getInt("p", 0);
            layer.q = shape->getInt("q", 0);
            layer.c = shape->getInt("c", 0);
            layer.k = shape->getInt("k", 0);
            layer.n = shape->getInt("n", 0);
            layer.stride = shape->getInt("stride", 0);
            const LayerScore score{eval->getDouble("cycles", 0.0),
                                   eval->getDouble("energy_pj", 0.0)};
            const auto [it, fresh] =
                scores->emplace(layer.canonicalKey(), score);
            if (!fresh && (it->second.cycles != score.cycles ||
                           it->second.energy_pj != score.energy_pj))
                return "layer " + layer.label() +
                       " came back with two different schedules";
        }
    }
    return "";
}

std::string
geomeans(const std::map<std::string, LayerScore>& scores,
         const std::vector<std::string>& keys, double* cycles,
         double* energy_pj)
{
    double log_cycles = 0.0, log_energy = 0.0;
    for (const std::string& key : keys) {
        const auto it = scores.find(key);
        if (it == scores.end())
            return "no result for layer " + key;
        log_cycles += std::log(it->second.cycles);
        log_energy += std::log(it->second.energy_pj);
    }
    const double n = static_cast<double>(keys.size());
    *cycles = std::exp(log_cycles / n);
    *energy_pj = std::exp(log_energy / n);
    return "";
}

std::string
firstDifference(const std::string& got, const std::string& want)
{
    std::size_t at = 0;
    while (at < got.size() && at < want.size() && got[at] == want[at])
        ++at;
    const auto around = [at](const std::string& s) {
        const std::size_t from = at < 40 ? 0 : at - 40;
        return s.substr(from, 80);
    };
    return "bytes differ at offset " + std::to_string(at) + " (wire " +
           std::to_string(got.size()) + " B, in-process " +
           std::to_string(want.size()) + " B): wire ..." + around(got) +
           "... in-process ..." + around(want) + "...";
}

std::vector<std::string>
verifySamples(
    const std::vector<Sample>& samples,
    const std::vector<cosa::ScheduleCache::ExportedEntry>& daemon_entries)
{
    std::vector<std::string> errors;
    cosa::SchedulerService service;
    const auto cold_cache = std::make_shared<cosa::ScheduleCache>();
    std::vector<std::pair<std::size_t, cosa::ScheduleJob>> jobs;
    for (std::size_t s = 0; s < samples.size(); ++s) {
        auto decoded = decodeRequest(samples[s].body);
        if (!decoded.ok()) {
            errors.push_back("sample does not decode: " +
                             decoded.status().message());
            continue;
        }
        cosa::ScheduleRequest request = std::move(decoded).value();
        if (samples[s].miss_key.empty()) {
            request.warm_start_hints = false;
            if (request.use_cache)
                request.cache = cold_cache;
        } else {
            auto replay = std::make_shared<cosa::ScheduleCache>();
            bool reached = false;
            for (const auto& entry : daemon_entries) {
                if (entry.key.layer_key == samples[s].miss_key) {
                    reached = true;
                    break;
                }
                replay->insert(entry.key, entry.result, entry.layer);
            }
            if (!reached) {
                errors.push_back("miss " + samples[s].miss_key +
                                 " is not in the daemon's cache");
                continue;
            }
            request.cache = replay;
        }
        cosa::SubmitResult submitted = service.submit(std::move(request));
        if (!submitted.accepted()) {
            errors.push_back("in-process submit rejected");
            continue;
        }
        jobs.emplace_back(s, submitted.takeJob());
    }
    for (auto& [s, job] : jobs) {
        const std::string want =
            cosa::server::resultsToJson(job.wait()).dump();
        if (samples[s].wire != want)
            errors.push_back(firstDifference(samples[s].wire, want));
    }
    return errors;
}

} // namespace cosabench
