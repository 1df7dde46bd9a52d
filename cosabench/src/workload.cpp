#include "workload.hpp"

#include <array>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "problem/workloads.hpp"

namespace cosabench {

namespace {

using cosa::LayerSpec;

/** Independent stream for (seed, stream, index): a request's content
 *  never depends on how many draws another stream made. */
cosa::Rng
rngFor(std::uint64_t seed, std::uint64_t stream, std::int64_t index)
{
    std::uint64_t h = seed * 0x9E3779B97F4A7C15ULL;
    h ^= stream + 0x632BE59BD9B4E019ULL + (h << 6) + (h >> 2);
    h ^= static_cast<std::uint64_t>(index) + 0x94D049BB133111EBULL +
         (h << 6) + (h >> 2);
    return cosa::Rng(h);
}

std::string
layerJson(const LayerSpec& layer, const std::string& name)
{
    std::ostringstream out;
    out << "{\"name\":\"" << name << "\",\"r\":" << layer.r
        << ",\"s\":" << layer.s << ",\"p\":" << layer.p
        << ",\"q\":" << layer.q << ",\"c\":" << layer.c
        << ",\"k\":" << layer.k << ",\"n\":" << layer.n
        << ",\"stride\":" << layer.stride << "}";
    return out.str();
}

std::string
singleLayerBody(const LayerSpec& layer, const std::string& net,
                const std::string& priority, bool use_cache)
{
    std::ostringstream out;
    out << "{\"workloads\":[{\"name\":\"" << net << "\",\"layers\":["
        << layerJson(layer, layer.label()) << "]}],\"arch\":\"simba\","
        << "\"priority\":\"" << priority << "\",";
    if (!use_cache)
        out << "\"use_cache\":false,";
    out << "\"tag\":\"" << net << "\"}";
    return out.str();
}

} // namespace

const std::vector<LayerSpec>&
warmLayers()
{
    static const std::vector<LayerSpec> layers = [] {
        std::vector<LayerSpec> out;
        std::set<std::string> seen;
        for (const LayerSpec& layer : cosa::workloads::resNet50Full().layers) {
            if (seen.insert(layer.canonicalKey()).second)
                out.push_back(layer);
        }
        return out;
    }();
    return layers;
}

namespace {

/** The shape changes that turn a warm layer into a miss. */
constexpr int kShapeChanges = 5;

LayerSpec
changeShape(const LayerSpec& base, int change)
{
    LayerSpec layer = base;
    switch (change) {
      case 0: layer.n = 2; break;
      case 1: layer.k *= 2; break;
      case 2: layer.c *= 2; break;
      case 3: layer.n = 4; break;
      default:
        layer.p *= 2;
        layer.q *= 2;
        break;
    }
    return layer;
}

/** The fixed probes (batch 3 of four warm layers) and which shape
 *  change of which warm layer gives a shape seen nowhere else. */
struct MissPlan
{
    std::vector<LayerSpec> probes;
    std::vector<std::array<bool, kShapeChanges>> novel; //!< [warm][change]
};

const MissPlan&
missPlan()
{
    static const MissPlan plan = [] {
        const std::vector<LayerSpec>& warm = warmLayers();
        std::set<std::string> seen;
        for (const LayerSpec& layer : warm)
            seen.insert(layer.canonicalKey());
        MissPlan out;
        for (std::int64_t p = 0; p < kProbeMisses; ++p) {
            LayerSpec probe = warm[static_cast<std::size_t>(p) *
                                   warm.size() / kProbeMisses];
            probe.n = 3;
            seen.insert(probe.canonicalKey());
            out.probes.push_back(probe);
        }
        out.novel.resize(warm.size());
        for (std::size_t b = 0; b < warm.size(); ++b) {
            for (int c = 0; c < kShapeChanges; ++c)
                out.novel[b][static_cast<std::size_t>(c)] =
                    seen.insert(changeShape(warm[b], c).canonicalKey())
                        .second;
        }
        return out;
    }();
    return plan;
}

} // namespace

bool
parseWorkload(const std::string& name, WorkloadKind* out)
{
    if (name == "cold-solve")
        *out = WorkloadKind::ColdSolve;
    else if (name == "warm-hits")
        *out = WorkloadKind::WarmHits;
    else if (name == "mixed-tiers")
        *out = WorkloadKind::MixedTiers;
    else
        return false;
    return true;
}

const char*
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::ColdSolve: return "cold-solve";
      case WorkloadKind::WarmHits: return "warm-hits";
      case WorkloadKind::MixedTiers: return "mixed-tiers";
    }
    return "?";
}

std::vector<LayerSpec>
suiteRows()
{
    std::vector<LayerSpec> rows;
    for (const cosa::Workload& suite : cosa::workloads::allSuites())
        rows.insert(rows.end(), suite.layers.begin(), suite.layers.end());
    return rows;
}

std::string
warmupBody()
{
    // One job, so no warm layer is solved with a hint from another:
    // the cache then holds exactly the cold schedules, inserted in a
    // fixed order.
    return "{\"workloads\":[\"resnet50full\"],"
           "\"arch\":\"simba\",\"priority\":\"normal\","
           "\"tag\":\"warmup\"}";
}

Request
coldRequest(std::uint64_t seed, std::int64_t i)
{
    static const std::vector<LayerSpec> rows = suiteRows();
    const std::int64_t n = static_cast<std::int64_t>(rows.size());
    std::vector<std::size_t> order(rows.size());
    for (std::size_t r = 0; r < order.size(); ++r)
        order[r] = r;
    cosa::Rng rng = rngFor(seed, 1, i / n);
    rng.shuffle(order);
    const LayerSpec& layer = rows[order[static_cast<std::size_t>(i % n)]];
    return {singleLayerBody(layer, "cold-" + std::to_string(i), "batch",
                            false),
            true};
}

Request
warmRequest(std::uint64_t seed, std::int64_t i, bool all_interactive)
{
    static const char* const kNamed[] = {"resnet50full", "resnet50"};
    const std::vector<LayerSpec>& warm = warmLayers();
    cosa::Rng rng = rngFor(seed, 2, i);
    const std::uint64_t form = rng.nextBelow(8);
    std::ostringstream out;
    Request request;
    if (form < 2) {
        request.batch = !all_interactive;
        out << "{\"workloads\":[\"" << kNamed[form] << "\"]";
    } else {
        const std::int64_t size =
            1 + static_cast<std::int64_t>(rng.nextBelow(6));
        out << "{\"workloads\":[{\"name\":\"draw-" << i
            << "\",\"layers\":[";
        for (std::int64_t l = 0; l < size; ++l) {
            const LayerSpec& layer = warm[rng.choiceIndex(warm)];
            out << (l ? "," : "")
                << layerJson(layer, layer.label() + "#" +
                                        std::to_string(l));
        }
        out << "]}]";
    }
    out << ",\"arch\":\"simba\",\"priority\":\""
        << (request.batch ? "batch" : "interactive") << "\",\"tag\":\"hit-"
        << i << "\"}";
    request.body = out.str();
    return request;
}

LayerSpec
missLayer(std::uint64_t seed, std::int64_t j)
{
    const MissPlan& plan = missPlan();
    if (j < kProbeMisses)
        return plan.probes[static_cast<std::size_t>(j)];
    // Each pass visits every warm layer once, in a seeded order, with a
    // shape change that moves on from pass to pass. Every seed thus
    // solves the same shapes in its first pass, only in another order,
    // which keeps batch latency comparable across seeds. After every
    // change was used, the passes repeat with the batch scaled by 3 per
    // round: warm and changed batches are 1, 2 and 4, so every shape
    // stays novel.
    const std::vector<LayerSpec>& warm = warmLayers();
    std::vector<std::size_t> order(warm.size());
    for (std::size_t b = 0; b < order.size(); ++b)
        order[b] = b;
    rngFor(seed, 3, 0).shuffle(order);
    std::int64_t left = j - kProbeMisses;
    for (std::int64_t pass = 0;; ++pass) {
        for (const std::size_t b : order) {
            const auto change = static_cast<int>(
                (b + static_cast<std::size_t>(pass)) % kShapeChanges);
            if (!plan.novel[b][static_cast<std::size_t>(change)] ||
                left-- > 0)
                continue;
            LayerSpec layer = changeShape(warm[b], change);
            for (std::int64_t round = pass / kShapeChanges; round > 0;
                 --round)
                layer.n *= 3;
            return layer;
        }
    }
}

Request
missRequest(std::uint64_t seed, std::int64_t j)
{
    return {singleLayerBody(missLayer(seed, j), "miss-" + std::to_string(j),
                            "batch", true),
            true};
}

} // namespace cosabench
