/**
 * @file
 * cosabench's own unit tests (no daemon): seeded request streams are
 * deterministic and well formed, result bytes are cut out of a status
 * body exactly, and the byte-identity check catches a corrupted byte.
 *
 *   python3 cosabench/run.py --selftest
 */

#include <iostream>
#include <map>
#include <set>

#include "check.hpp"
#include "loadgen.hpp"
#include "server/wire.hpp"
#include "workload.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                       \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::cerr << __FILE__ << ":" << __LINE__                       \
                      << ": expected " #cond << std::endl;                 \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

using namespace cosabench;

void
testStreamsAreSeeded()
{
    for (std::int64_t i = 0; i < 200; ++i) {
        EXPECT(coldRequest(7, i).body == coldRequest(7, i).body);
        EXPECT(warmRequest(7, i, false).body == warmRequest(7, i, false).body);
        EXPECT(decodeRequest(warmRequest(7, i, true).body).ok());
    }
    for (std::int64_t j = 0; j < 30; ++j) {
        EXPECT(missRequest(7, j).body == missRequest(7, j).body);
        EXPECT(decodeRequest(missRequest(7, j).body).ok());
    }
    bool differs = false;
    for (std::int64_t i = 0; i < 10; ++i)
        differs |= coldRequest(7, i).body != coldRequest(8, i).body;
    EXPECT(differs);
}

void
testColdPassVisitsEveryRow()
{
    const auto rows = static_cast<std::int64_t>(suiteRows().size());
    EXPECT(rows == 65);
    std::multiset<std::string> want, got;
    for (const cosa::LayerSpec& row : suiteRows())
        want.insert(row.canonicalKey());
    for (std::int64_t i = 0; i < rows; ++i) {
        auto request = decodeRequest(coldRequest(3, i).body);
        EXPECT(request.ok() && !request.value().use_cache);
        if (request.ok())
            got.insert(
                request.value().workloads[0].layers[0].canonicalKey());
    }
    EXPECT(got == want);
}

void
testMissesAreNovel()
{
    std::set<std::string> warm;
    for (const cosa::LayerSpec& layer : warmLayers())
        warm.insert(layer.canonicalKey());
    EXPECT(warm.size() == warmLayers().size());
    std::set<std::string> seen;
    for (std::int64_t j = 0; j < 300; ++j) {
        const std::string key = missLayer(5, j).canonicalKey();
        EXPECT(!warm.count(key));
        EXPECT(seen.insert(key).second);
    }
    for (std::int64_t j = 0; j < kProbeMisses; ++j)
        EXPECT(missLayer(5, j).canonicalKey() ==
               missLayer(6, j).canonicalKey());
}

void
testExtractResults()
{
    const std::string body = "{\"id\":3,\"tag\":\"x\",\"state\":\"done\","
                             "\"results\":[{\"a\":1}],\"provenance\":[{}]}";
    EXPECT(extractResults(body) == "[{\"a\":1}]");
    EXPECT(extractResults("{\"id\":3,\"state\":\"running\"}").empty());
}

void
testCorruptedByteIsCaught()
{
    // A tiny layer, so the in-process solves take milliseconds.
    const std::string body =
        "{\"workloads\":[{\"name\":\"t\",\"layers\":[\"1_1_4096_1000_1\"]}],"
        "\"arch\":\"simba\",\"use_cache\":false}";
    auto request = decodeRequest(body);
    EXPECT(request.ok());
    cosa::SchedulerService service(cosa::ServiceConfig{1});
    const std::string wire = cosa::server::resultsToJson(
                                 service.submit(request.value()).job().wait())
                                 .dump();
    EXPECT(verifySamples({{body, wire, ""}}, {}).empty());
    std::string corrupted = wire;
    corrupted[corrupted.size() / 2] ^= 0x01;
    EXPECT(verifySamples({{body, corrupted, ""}}, {}).size() == 1);

    std::map<std::string, LayerScore> scores;
    EXPECT(addScores(wire, &scores).empty());
    EXPECT(scores.size() == 1);
    const auto at = wire.find("\"cycles\":") + 9;
    const std::string other = wire.substr(0, at) + "1" + wire.substr(at);
    EXPECT(!addScores(other, &scores).empty());
}

} // namespace

int
main()
{
    testStreamsAreSeeded();
    testColdPassVisitsEveryRow();
    testMissesAreNovel();
    testExtractResults();
    testCorruptedByteIsCaught();
    if (g_failures) {
        std::cerr << g_failures << " cosabench self-test check(s) failed"
                  << std::endl;
        return 1;
    }
    std::cout << "cosabench self-tests passed" << std::endl;
    return 0;
}
