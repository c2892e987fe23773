#include "block/feature_cache.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace fs::block {

namespace {

// Blocks target ~256 KiB of row payload so budget charges are granular
// enough to trip a tight --max-memory-mb before the arena balloons, but a
// tiny run still fits in one or two blocks.
constexpr std::size_t kTargetBlockBytes = 256 * 1024;

std::size_t rows_per_block_for(std::size_t width) {
  if (width == 0) return 0;
  const std::size_t rows = kTargetBlockBytes / (width * sizeof(double));
  return std::max<std::size_t>(rows, 16);
}

}  // namespace

void FeatureCache::RowStore::reset(std::size_t new_width) {
  blocks.clear();
  charges.clear();  // releases every block's MemoryCharge
  of_pair.clear();
  free_slots.clear();
  rows = 0;
  width = new_width;
  rows_per_block = rows_per_block_for(new_width);
}

bool FeatureCache::RowStore::erase(const data::UserPair& pair) {
  const auto it = of_pair.find(pair);
  if (it == of_pair.end()) return false;
  free_slots.push_back(it->second);
  of_pair.erase(it);
  return true;
}

std::size_t FeatureCache::RowStore::clear_rows() {
  const std::size_t dropped = of_pair.size();
  of_pair.clear();
  free_slots.clear();
  rows = 0;  // blocks and charges stay allocated for reuse
  return dropped;
}

const double* FeatureCache::RowStore::row(std::uint32_t index) const {
  return blocks[index / rows_per_block].get() +
         (index % rows_per_block) * width;
}

const double* FeatureCache::RowStore::find(const data::UserPair& pair) const {
  const double* found = peek(pair);
  (found != nullptr ? hits : misses).fetch_add(1, std::memory_order_relaxed);
  return found;
}

const double* FeatureCache::RowStore::peek(const data::UserPair& pair) const {
  const auto it = of_pair.find(pair);
  return it == of_pair.end() ? nullptr : row(it->second);
}

double* FeatureCache::RowStore::insert(const data::UserPair& pair) {
  if (!free_slots.empty()) {
    const auto index = free_slots.back();
    free_slots.pop_back();
    of_pair.emplace(pair, index);
    return const_cast<double*>(row(index));
  }
  if (rows == blocks.size() * rows_per_block) {
    const std::size_t block_bytes = rows_per_block * width * sizeof(double);
    // Charge before allocating so BudgetError fires with the arena intact.
    runtime::MemoryCharge charge(context, block_bytes, charge_label);
    blocks.push_back(std::make_unique<double[]>(rows_per_block * width));
    charges.push_back(std::move(charge));
  }
  const auto index = static_cast<std::uint32_t>(rows++);
  of_pair.emplace(pair, index);
  return const_cast<double*>(row(index));
}

void FeatureCache::prepare(std::uint64_t signature, std::size_t joc_width,
                           std::size_t presence_width,
                           runtime::ExecutionContext* context) {
  // A JOC row survives when the signature still matches — or, once, when
  // the caller vouched for the surviving rows under the new signature
  // (carry_joc_across_next_prepare after delta invalidation). Presence rows
  // never ride the carry: the model they are a function of retrained.
  const bool joc_reusable =
      bound_ && joc_.width == joc_width &&
      (signature_ == signature || carry_joc_once_);
  const bool presence_reusable = bound_ && signature_ == signature &&
                                 presence_.width == presence_width;
  if (!joc_reusable) joc_.reset(joc_width);
  if (!presence_reusable) presence_.reset(presence_width);
  signature_ = signature;
  bound_ = true;
  carry_joc_once_ = false;
  joc_.charge_label = "block.cache.joc";
  presence_.charge_label = "block.cache.presence";
  // Re-home existing charges onto the new run's context: release from the
  // old one, charge the new one. A run sharing the cache must see cached
  // bytes under its own --max-memory-mb.
  for (RowStore* store : {&joc_, &presence_}) {
    if (store->context == context) continue;
    std::vector<runtime::MemoryCharge> moved;
    moved.reserve(store->charges.size());
    for (runtime::MemoryCharge& old : store->charges) {
      runtime::MemoryCharge fresh(context, old.bytes(), store->charge_label);
      moved.push_back(std::move(fresh));
    }
    store->charges = std::move(moved);  // old charges release here
    store->context = context;
  }
}

std::size_t FeatureCache::invalidate_joc_touching(
    const std::vector<data::UserId>& users) {
  if (users.empty() || joc_.of_pair.empty()) return 0;
  std::unordered_set<data::UserId> touched(users.begin(), users.end());
  std::vector<data::UserPair> stale;
  for (const auto& [pair, index] : joc_.of_pair)
    if (touched.count(pair.first) != 0 || touched.count(pair.second) != 0)
      stale.push_back(pair);
  for (const auto& pair : stale) joc_.erase(pair);
  return stale.size();
}

std::size_t FeatureCache::invalidate_presence_all() {
  return presence_.clear_rows();
}

FeatureCache::Stats FeatureCache::stats() const {
  Stats s;
  s.joc_hits = joc_.hits.load(std::memory_order_relaxed);
  s.joc_misses = joc_.misses.load(std::memory_order_relaxed);
  s.presence_hits = presence_.hits.load(std::memory_order_relaxed);
  s.presence_misses = presence_.misses.load(std::memory_order_relaxed);
  s.joc_rows = joc_.live_rows();
  s.presence_rows = presence_.live_rows();
  s.bytes = bytes();
  return s;
}

}  // namespace fs::block
