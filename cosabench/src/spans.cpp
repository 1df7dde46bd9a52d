#include "spans.hpp"

#include "common/json.hpp"

namespace cosabench {

namespace {

class TimedBound final : public cosa::BoundEvaluator
{
  public:
    TimedBound(std::unique_ptr<cosa::BoundEvaluator> inner, SpanScope scope)
        : inner_(std::move(inner)), scope_(scope)
    {
    }

    cosa::Evaluation
    evaluate(const cosa::Mapping& mapping) const override
    {
        const Clock::time_point start = Clock::now();
        cosa::Evaluation eval = inner_->evaluate(mapping);
        scope_.sink->record("model.eval", scope_.request, scope_.parent,
                            start, Clock::now());
        return eval;
    }

    cosa::Evaluation
    searchEvaluate(const cosa::Mapping& mapping) const override
    {
        const Clock::time_point start = Clock::now();
        cosa::Evaluation eval = inner_->searchEvaluate(mapping);
        scope_.sink->record("model.search_eval", scope_.request,
                            scope_.parent, start, Clock::now());
        return eval;
    }

  private:
    std::unique_ptr<cosa::BoundEvaluator> inner_;
    SpanScope scope_;
};

} // namespace

std::int64_t
SpanSink::newId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

std::int64_t
SpanSink::record(std::string name, std::int64_t request, std::int64_t parent,
                 Clock::time_point start, Clock::time_point end,
                 std::int64_t id)
{
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < 0)
        id = next_id_++;
    spans_.push_back({std::move(name), request, id, parent, us(start),
                      us(end)});
    return id;
}

std::vector<Span>
SpanSink::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::string
SpanSink::toJson() const
{
    cosa::json::Value out = cosa::json::Value::array();
    for (const Span& span : spans()) {
        cosa::json::Value v = cosa::json::Value::object();
        v.set("name", span.name);
        v.set("request", span.request);
        v.set("id", span.id);
        v.set("parent", span.parent);
        v.set("start_us", span.start_us);
        v.set("end_us", span.end_us);
        out.push(std::move(v));
    }
    return out.dump();
}

std::optional<cosa::SearchResult>
TimedCache::lookup(const cosa::ScheduleCacheKey& key)
{
    const Clock::time_point start = Clock::now();
    auto hit = inner_->lookup(key);
    scope_.sink->record("cachestore.lookup", scope_.request, scope_.parent,
                        start, Clock::now());
    return hit;
}

void
TimedCache::insert(const cosa::ScheduleCacheKey& key,
                   const cosa::SearchResult& result,
                   const cosa::LayerSpec& layer)
{
    const Clock::time_point start = Clock::now();
    inner_->insert(key, result, layer);
    scope_.sink->record("cachestore.insert", scope_.request, scope_.parent,
                        start, Clock::now());
}

std::optional<cosa::SearchResult>
TimedCache::nearestNeighbor(const std::string& arch_key,
                            const std::string& scheduler_key,
                            const std::string& evaluator_key,
                            const cosa::LayerSpec& target)
{
    const Clock::time_point start = Clock::now();
    auto neighbor =
        inner_->nearestNeighbor(arch_key, scheduler_key, evaluator_key,
                                target);
    scope_.sink->record("cachestore.neighbor", scope_.request,
                        scope_.parent, start, Clock::now());
    return neighbor;
}

std::unique_ptr<cosa::BoundEvaluator>
TimedEvaluator::bind(const cosa::LayerSpec& layer,
                     const cosa::ArchSpec& arch) const
{
    return std::make_unique<TimedBound>(inner_->bind(layer, arch), scope_);
}

} // namespace cosabench
