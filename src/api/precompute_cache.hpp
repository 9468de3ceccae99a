// suu::api — process-wide cache of prepared solvers.
//
// SolverRegistry preparers run the deterministic per-instance work (LP1/LP2
// solve + rounding, heavy-path decomposition, DP value iteration) and
// return a factory sharing those artifacts. Across an experiment grid the
// same instance appears in many cells — and across repeated grids in the
// same process, many times more — so the registry memoizes prepared
// factories here, keyed by a 64-bit hash of (instance fingerprint, resolved
// solver name, solver options). Each entry also carries the instance's
// LowerBoundSlot (api/registry.hpp), so the lower bound of every request
// served by one entry is computed at most once.
//
// Correctness rests on two repo invariants: preparers are deterministic
// functions of (instance, options), and factories are immutable once built
// (each mint returns a fresh policy; shared artifacts are read-only behind
// shared_ptr/by-value configs). A cached factory is therefore
// indistinguishable from a freshly prepared one, byte for byte, in any
// downstream measurement.
//
// Eviction is LRU: every hit moves its entry to the back of the recency
// list, so a long-running service keeps its hot session instances resident
// while one-shot instances age out. Stats (hits/misses/evictions) are exact
// under concurrent access — every lookup outcome is counted under the lock
// that decides it.
//
// Pinning: a caller holding a long-lived reference to an instance — a
// service session that opened a handle — pins the prepare keys it depends
// on. Pins are reference counts kept independently of the entries, so a key
// may be pinned before its first prepare; while a key's pin count is
// positive, LRU eviction skips it (the cache may transiently exceed its
// capacity when many pinned keys are live). clear() drops entries but not
// pins: a pinned key whose entry was cleared is re-prepared on next use and
// stays pinned.
//
// Thread safety: lookups and inserts take a mutex; the prepare itself runs
// outside the lock, so concurrent cells missing on the same key may both
// compute (same value — first insert wins) but never block each other on
// LP solves. Callers that want exactly one prepare per key coalesce above
// this layer (see service::Engine's single-flight table).
//
// Delta warm-start annotations: an entry may carry the final simplex basis
// its prepare produced, plus the prepare key of the instance it was
// warm-started from (its "parent"). SolverRegistry::prepare records both
// after a cacheable warm-start miss and seeds a child prepare from its
// parent's basis — the mechanism behind update_instance's incremental
// re-solve. Annotations ride the entry: eviction drops them (a child whose
// parent aged out simply prepares cold), and they never affect
// hit/miss/LRU accounting or pin semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"

namespace suu::api {

class LowerBoundSlot;  // api/registry.hpp

class PrecomputeCache {
 public:
  /// One entry's payload: the prepared factory and the lower-bound slot
  /// every request for the entry's instance shares (may be null).
  struct Value {
    sim::PolicyFactory factory;
    std::shared_ptr<LowerBoundSlot> lower_bound;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::size_t pinned = 0;  ///< keys with a positive pin count
  };

  /// The process-wide cache consulted by SolverRegistry::prepare.
  static PrecomputeCache& global();

  /// Return the value cached under `key` (touching its recency), or run
  /// `make`, cache its result, and return it. `make` executes outside the
  /// cache lock; when a racing miss inserted first, the resident value is
  /// returned, so every caller shares one lower-bound slot.
  Value get_or_prepare(std::uint64_t key, const std::function<Value()>& make);

  /// Entries retained before least-recently-used eviction kicks in (grids
  /// rarely exceed a few dozen live keys; the cap bounds pathological
  /// sweeps and long-running service sessions).
  void set_capacity(std::size_t capacity);

  /// Exempt `key` from LRU eviction until a matching unpin. Reference
  /// counted; the key need not have an entry yet.
  void pin(std::uint64_t key);
  /// Release one pin on `key`. Unbalanced unpins are ignored. When the last
  /// pin drops and the cache is over capacity, the key becomes evictable
  /// again (and is reaped on the next insert or set_capacity).
  void unpin(std::uint64_t key);

  /// Attach warm-start provenance to the entry under `key`: the prepare
  /// key it was seeded from (0 = prepared cold), the final simplex
  /// basis its prepare produced (empty = none recorded, e.g. a
  /// Frank–Wolfe path), and whether the prepare's final optimum passed the
  /// strict uniqueness certificate (lp::WarmStart::last_unique). No-op
  /// when the entry is absent — it may have been evicted, or lost the
  /// get_or_prepare insert race — and never touches recency or stats.
  void annotate(std::uint64_t key, std::uint64_t parent_key,
                std::vector<int> basis, bool cert_unique = false);

  /// The basis recorded for `key`, or nullptr when the entry is absent or
  /// carries none. Deliberately NOT a cache "use": no LRU touch, no
  /// hit/miss accounting — a child peeking at its parent's basis must not
  /// keep the parent artificially hot.
  std::shared_ptr<const std::vector<int>> basis(std::uint64_t key) const;

  /// Did `key`'s prepare certify its final optimum unique (see annotate)?
  /// False when the entry is absent. Children seeded from `key`'s basis
  /// must re-certify on their own trajectory regardless — this flag only
  /// predicts whether that attempt is worth the work: a parent that
  /// already demonstrated alternative optima will have its child's
  /// certificate fail too, so the registry skips the seed outright.
  bool certified_unique(std::uint64_t key) const;

  /// The recorded parent prepare key for `key` (0 when absent or cold).
  /// Test/observability hook.
  std::uint64_t parent(std::uint64_t key) const;

  /// Drop every entry (stats and pins are kept; see reset_stats/unpin).
  void clear();
  void reset_stats();
  Stats stats() const;

 private:
  struct Entry {
    Value value;
    std::list<std::uint64_t>::iterator lru_it;  // position in lru_
    /// Warm-start provenance (see annotate); null/0/false until annotated.
    std::shared_ptr<const std::vector<int>> basis;
    std::uint64_t parent_key = 0;
    bool cert_unique = false;
  };

  void evict_over_capacity_locked();  // requires mu_ held

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<std::uint64_t, std::size_t> pins_;  // key -> pin count
  std::list<std::uint64_t> lru_;  // least recently used first
  std::size_t capacity_ = 256;
  Stats stats_;
};

}  // namespace suu::api
