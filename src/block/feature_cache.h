// Memoized per-pair feature store: JOC rows and presence features, keyed by
// user pair under a (division, tau, model) signature.
//
// The pipeline's dominant repeated cost is rebuilding identical per-pair
// artifacts: the flattened JOC cuboid and the autoencoder's presence
// feature are pure functions of (pair, division, tau, trained model), yet a
// dense run rematerializes them wholesale. The cache memoizes both, so
//
//   * phase 2's refinement iterations fetch presence rows instead of
//     re-deriving them every pass, and
//   * a caller that owns a cache across runs (same dataset, same division,
//     same seeds) pays the feature build once.
//
// Storage is a chunked arena: rows live in fixed-size blocks whose
// addresses never move as the cache grows, so `find_*` pointers handed to
// parallel readers stay valid while the region runs. Each new block is
// charged against the run's ExecutionContext memory budget (BudgetError
// propagates to the caller before the allocation happens), and the total
// is mirrored into the block.cache.bytes gauge by the pipeline.
//
// Invalidation is signature-driven: prepare() drops everything exactly when
// the signature or the row widths change, and is a no-op (entries survive,
// hits accrue) otherwise. The signature must cover everything the rows are
// a function of — the CellIndex content hash covers (dataset, division,
// tau); callers fold in model configuration and training-set identity.
//
// Streaming adds a finer grain: a delta of events touches a handful of
// users, and a JOC row is a pure function of its pair's own occupancy — so
// invalidate_joc_touching() evicts exactly the rows of touched users
// (freed slots are reused), presence rows (functions of the globally
// retrained model) drop wholesale via invalidate_presence_all(), and
// carry_joc_across_next_prepare() lets the next prepare() adopt the new
// signature while keeping the surviving JOC rows instead of nuking the
// cache because one event arrived.
//
// Concurrency contract: find_*, peek_presence and count_presence_hits are
// safe from parallel regions (lookups are const; hit/miss counters are
// relaxed atomics). insert_* and prepare() are single-threaded — the
// pipeline computes the miss list sequentially, allocates slots
// sequentially, and only the row *fill* fans out.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "util/runtime.h"

namespace fs::block {

class FeatureCache {
 public:
  struct Stats {
    std::uint64_t joc_hits = 0;
    std::uint64_t joc_misses = 0;
    std::uint64_t presence_hits = 0;
    std::uint64_t presence_misses = 0;
    std::size_t joc_rows = 0;
    std::size_t presence_rows = 0;
    std::size_t bytes = 0;

    std::uint64_t hits() const { return joc_hits + presence_hits; }
    std::uint64_t misses() const { return joc_misses + presence_misses; }
    double hit_rate() const {
      const std::uint64_t total = hits() + misses();
      return total == 0 ? 0.0
                        : static_cast<double>(hits()) /
                              static_cast<double>(total);
    }
  };

  FeatureCache() = default;

  /// Binds the cache to a signature and row widths. Entries survive only
  /// when all three match the previous binding; otherwise the arenas drop
  /// and their memory charges release. The context (may be null) is
  /// captured for charging blocks allocated until the next prepare().
  /// Counters are never reset by a matching prepare(), so hit rates
  /// accumulate across runs sharing the cache.
  void prepare(std::uint64_t signature, std::size_t joc_width,
               std::size_t presence_width,
               runtime::ExecutionContext* context);

  std::uint64_t signature() const { return signature_; }
  std::size_t joc_width() const { return joc_.width; }
  std::size_t presence_width() const { return presence_.width; }

  /// Cached JOC row of the pair, or nullptr. Counts one hit or miss.
  const double* find_joc(const data::UserPair& pair) const {
    return joc_.find(pair);
  }
  /// Allocates (and indexes) the pair's JOC row; the caller fills it. The
  /// pair must not be present. May throw BudgetError on a new block.
  double* insert_joc(const data::UserPair& pair) { return joc_.insert(pair); }

  const double* find_presence(const data::UserPair& pair) const {
    return presence_.find(pair);
  }
  /// find_presence without the hit/miss count, for callers that resolve
  /// rows ahead of the lookups they stand for and then book those lookups
  /// with count_presence_hits (phase 2's edge-feature table).
  const double* peek_presence(const data::UserPair& pair) const {
    return presence_.peek(pair);
  }
  /// Books `hits` presence lookups that hit, in one relaxed atomic add.
  void count_presence_hits(std::uint64_t hits) const {
    presence_.hits.fetch_add(hits, std::memory_order_relaxed);
  }
  double* insert_presence(const data::UserPair& pair) {
    return presence_.insert(pair);
  }

  /// Evicts every cached JOC row whose pair contains any of `users`,
  /// returning the number of rows dropped. Freed slots go on a free list
  /// and are reused by later inserts, so repeated deltas do not grow the
  /// arena. Single-threaded, like insert_*.
  std::size_t invalidate_joc_touching(const std::vector<data::UserId>& users);

  /// Evicts every presence row (a retrained presence model invalidates all
  /// of them at once); arena blocks and their charges are kept for reuse.
  std::size_t invalidate_presence_all();

  /// One-shot escape hatch from whole-signature invalidation: the NEXT
  /// prepare() may adopt a *different* signature while keeping surviving
  /// JOC rows (the JOC width must still match; presence drops as usual).
  /// The caller owns the proof obligation that every stale row was already
  /// evicted via invalidate_joc_touching() — e.g. the stream daemon, which
  /// knows exactly which users an event delta touched.
  void carry_joc_across_next_prepare() { carry_joc_once_ = true; }

  /// Arena bytes currently held (blocks, not map overhead).
  std::size_t bytes() const { return joc_.bytes() + presence_.bytes(); }

  Stats stats() const;

 private:
  struct PairHash {
    std::size_t operator()(const data::UserPair& p) const noexcept {
      std::uint64_t v = (static_cast<std::uint64_t>(p.first) << 32) |
                        static_cast<std::uint64_t>(p.second);
      // splitmix64 finalizer.
      v ^= v >> 30;
      v *= 0xbf58476d1ce4e5b9ULL;
      v ^= v >> 27;
      v *= 0x94d049bb133111ebULL;
      v ^= v >> 31;
      return static_cast<std::size_t>(v);
    }
  };

  struct RowStore {
    std::size_t width = 0;
    std::size_t rows_per_block = 0;
    std::size_t rows = 0;
    std::vector<std::unique_ptr<double[]>> blocks;
    std::vector<runtime::MemoryCharge> charges;
    std::vector<std::uint32_t> free_slots;  // erased row indices, reusable
    std::unordered_map<data::UserPair, std::uint32_t, PairHash> of_pair;
    runtime::ExecutionContext* context = nullptr;
    const char* charge_label = "block.cache";
    mutable std::atomic<std::uint64_t> hits{0};
    mutable std::atomic<std::uint64_t> misses{0};

    void reset(std::size_t new_width);
    const double* find(const data::UserPair& pair) const;
    const double* peek(const data::UserPair& pair) const;
    double* insert(const data::UserPair& pair);
    /// Drops the pair's row (slot goes on the free list). False if absent.
    bool erase(const data::UserPair& pair);
    /// Drops every row, keeping blocks and charges for reuse.
    std::size_t clear_rows();
    std::size_t live_rows() const { return rows - free_slots.size(); }
    const double* row(std::uint32_t index) const;
    std::size_t bytes() const {
      return blocks.size() * rows_per_block * width * sizeof(double);
    }
  };

  std::uint64_t signature_ = 0;
  bool bound_ = false;
  bool carry_joc_once_ = false;
  RowStore joc_;
  RowStore presence_;
};

}  // namespace fs::block
