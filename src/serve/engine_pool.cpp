#include "serve/engine_pool.hpp"

#include <stdexcept>
#include <utility>

#include "scenario/graph_io.hpp"

namespace fc::serve {

EnginePool::EnginePool(std::size_t capacity, std::string cache_dir)
    : capacity_(capacity), cache_dir_(std::move(cache_dir)) {
  if (capacity_ == 0)
    throw std::invalid_argument("engine pool: capacity must be >= 1");
}

std::string EnginePool::pool_key(const scenario::GraphSpec& spec) {
  return scenario::Registry::instance()
      .canonical(spec)
      .without("sources")
      .without("source_mode")
      .to_string();
}

EnginePool::Entry* EnginePool::find(const scenario::GraphSpec& spec) {
  const std::string key = pool_key(spec);
  for (Entry& e : entries_)
    if (e.key == key) return &e;
  return nullptr;
}

EnginePool::Entry& EnginePool::install_slot(const scenario::GraphSpec& spec) {
  const std::string key = pool_key(spec);
  ++stats_.installs;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key != key) continue;
    entries_.splice(entries_.begin(), entries_, it);
    return entries_.front();
  }
  Entry& entry = entries_.emplace_front();
  entry.key = key;
  entry.spec = scenario::GraphSpec::parse(key);
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    ++stats_.evictions;
  }
  return entry;
}

EnginePool::Entry& EnginePool::install(const scenario::GraphSpec& spec,
                                       Graph g) {
  Entry& entry = install_slot(spec);
  entry.weighted.reset();
  entry.plain.emplace(std::move(g));
  ++entry.graph_revision;  // the warm Network (if any) is now stale
  return entry;
}

EnginePool::Entry& EnginePool::install(const scenario::GraphSpec& spec,
                                       WeightedGraph g) {
  Entry& entry = install_slot(spec);
  entry.plain.reset();
  entry.weighted.emplace(std::move(g));
  ++entry.graph_revision;
  return entry;
}

EnginePool::Entry& EnginePool::acquire(const scenario::GraphSpec& spec,
                                       bool* cache_hit) {
  const std::string key = pool_key(spec);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key != key) continue;
    ++stats_.hits;
    entries_.splice(entries_.begin(), entries_, it);  // no element moves
    Entry& entry = entries_.front();
    // A mutated graph must never be served with the engine built for its
    // predecessor: the Network's buffers are sized for the old arc count
    // and — because install() reuses the entry's graph storage — the
    // scenario layer's address check cannot tell the difference. Rebuild
    // before handing out; a stale entry misses the warm engine by design.
    if (entry.network_revision != entry.graph_revision ||
        entry.network == nullptr) {
      const bool was_stale = entry.network != nullptr;
      entry.network = std::make_unique<congest::Network>(entry.graph());
      entry.network_revision = entry.graph_revision;
      if (was_stale) ++stats_.stale_rebuilds;
      if (cache_hit != nullptr) *cache_hit = false;
    } else if (cache_hit != nullptr) {
      *cache_hit = true;
    }
    return entry;
  }

  ++stats_.misses;
  if (cache_hit != nullptr) *cache_hit = false;
  if (scenario::spec_is_dynamic(spec))
    throw std::invalid_argument(
        "engine pool: dynamic specs (churn=/updates=) must be install()ed "
        "by their scenario, never Registry-built — endpoint-keyed weights "
        "would silently disagree");
  // Build IN PLACE inside the list node: the Network binds to the entry's
  // graph by address, so the entry must never move after construction
  // (std::list guarantees that; splice above only relinks).
  Entry& entry = entries_.emplace_front();
  try {
    entry.key = key;
    entry.spec = scenario::GraphSpec::parse(key);
    bool from_corpus = false;
    if (entry.spec.has_weights()) {
      entry.weighted =
          cache_dir_.empty()
              ? scenario::Registry::instance().build_weighted(entry.spec)
              : scenario::load_or_generate_weighted(entry.spec, cache_dir_,
                                                    &from_corpus);
    } else {
      entry.plain = cache_dir_.empty()
                        ? scenario::Registry::instance().build(entry.spec)
                        : scenario::load_or_generate(entry.spec, cache_dir_,
                                                     &from_corpus);
    }
    if (from_corpus)
      ++stats_.corpus_loads;
    else
      ++stats_.graph_builds;
    entry.network = std::make_unique<congest::Network>(entry.graph());
    entry.graph_revision = 1;
    entry.network_revision = 1;
  } catch (...) {
    entries_.pop_front();  // a bad spec must not leave a half-built entry
    throw;
  }
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    ++stats_.evictions;
  }
  return entries_.front();
}

}  // namespace fc::serve
