#pragma once

/**
 * @file
 * In-memory spans for the traced run, recorded only by benchmark code
 * around the program's public calls: the wire codec, submit/wait, the
 * CoSA formulation and its solve, and two forwarding decorators — a
 * ScheduleCache around the persistent store and an Evaluator around
 * the analytical model. The decorators change no result: every call
 * is forwarded unchanged and the evaluator's fingerprint passes
 * through, so cache keys stay those of the daemon.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/schedule_cache.hpp"
#include "model/evaluator.hpp"
#include "util.hpp"

namespace cosabench {

/** One finished span. Spans of one request share its id. */
struct Span
{
    std::string name;
    std::int64_t request = -1;
    std::int64_t id = 0;
    std::int64_t parent = -1; //!< -1 for a request's root span
    double start_us = 0.0;    //!< from the sink's origin
    double end_us = 0.0;

    double ms() const { return (end_us - start_us) / 1000.0; }
};

/** Thread-safe span store. */
class SpanSink
{
  public:
    explicit SpanSink(Clock::time_point origin) : origin_(origin) {}

    /** Reserve an id for a span that is still open. */
    std::int64_t newId();
    /** Store a finished span under @p id (newId() when -1). */
    std::int64_t record(std::string name, std::int64_t request,
                        std::int64_t parent, Clock::time_point start,
                        Clock::time_point end, std::int64_t id = -1);
    std::vector<Span> spans() const;
    /** Every span as a JSON array. */
    std::string toJson() const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::int64_t next_id_ = 0;
};

/** Where a decorator files its spans: one request's engine span. */
struct SpanScope
{
    SpanSink* sink = nullptr;
    std::int64_t request = -1;
    std::int64_t parent = -1;
};

/** Forwarding ScheduleCache that times lookup, insert and
 *  nearestNeighbor as cachestore.* spans. */
class TimedCache final : public cosa::ScheduleCache
{
  public:
    TimedCache(std::shared_ptr<cosa::ScheduleCache> inner, SpanScope scope)
        : inner_(std::move(inner)), scope_(scope)
    {
    }

    std::optional<cosa::SearchResult> lookup(
        const cosa::ScheduleCacheKey& key) override;
    void insert(const cosa::ScheduleCacheKey& key,
                const cosa::SearchResult& result,
                const cosa::LayerSpec& layer) override;
    std::optional<cosa::SearchResult> nearestNeighbor(
        const std::string& arch_key, const std::string& scheduler_key,
        const std::string& evaluator_key,
        const cosa::LayerSpec& target) override;

    bool contains(const cosa::ScheduleCacheKey& key) const override
    {
        return inner_->contains(key);
    }
    std::size_t size() const override { return inner_->size(); }
    std::int64_t capacity() const override { return inner_->capacity(); }
    void setCapacity(std::int64_t capacity) override
    {
        inner_->setCapacity(capacity);
    }
    cosa::ScheduleCacheStats stats() const override
    {
        return inner_->stats();
    }
    void clear() override { inner_->clear(); }
    std::vector<ExportedEntry> exportEntries() const override
    {
        return inner_->exportEntries();
    }
    IoResult save(const std::string& path) const override
    {
        return inner_->save(path);
    }
    IoResult load(const std::string& path) override
    {
        return inner_->load(path);
    }

  private:
    std::shared_ptr<cosa::ScheduleCache> inner_;
    SpanScope scope_;
};

/** Forwarding Evaluator whose bound evaluators time every evaluate()
 *  and searchEvaluate() as a model.eval span. */
class TimedEvaluator final : public cosa::Evaluator
{
  public:
    TimedEvaluator(std::shared_ptr<const cosa::Evaluator> inner,
                   SpanScope scope)
        : inner_(std::move(inner)), scope_(scope)
    {
    }

    std::unique_ptr<cosa::BoundEvaluator> bind(
        const cosa::LayerSpec& layer,
        const cosa::ArchSpec& arch) const override;
    bool searchIsExact() const override { return inner_->searchIsExact(); }
    int rescoreTopK() const override { return inner_->rescoreTopK(); }
    std::string fingerprint() const override
    {
        return inner_->fingerprint();
    }

  private:
    std::shared_ptr<const cosa::Evaluator> inner_;
    SpanScope scope_;
};

} // namespace cosabench
