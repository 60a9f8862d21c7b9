// StateStore — sharded concurrent seen-set for parallel exploration.
//
// Keys are fixed-width StateCodec words.  The store is split into 2^k
// shards selected by key hash; each shard owns
//   * an open-addressing probe table (hash, id) guarded by the shard
//     mutex, and
//   * chunked key/metadata arenas: states live in fixed 4096-state
//     chunks whose addresses never change, published through atomic
//     chunk-pointer slots preallocated at construction.  Readers may
//     therefore dereference any id they legitimately hold (returned by
//     an intern, or taken from a frontier built before a barrier)
//     without locking, while other threads keep inserting.
//
// Determinism.  Ids are assigned in insertion order per shard and are
// NOT deterministic across thread counts — nothing verdict-relevant may
// depend on them.  What IS deterministic:
//   * the set of stored keys (exploration is exhaustive per level),
//   * per-state depth (level-synchronous BFS: a state's depth is the
//     level of first discovery, independent of which worker got there),
//   * the legitimacy flag (evaluated once, on insertion, from the
//     discovering worker's decoded configuration), and
//   * the parent pointer: among all same-depth discoverers of a state,
//     intern() keeps the one with the lexicographically smallest
//     (parent key, move) — a total order on *keys*, not ids — so
//     counterexample traces are bit-identical for 1 and N threads.
//
// Capacity is a hard bound used to size the chunk-pointer arrays (with
// 4x headroom per shard against hash skew); exhausting it sets
// overflowed() instead of reallocating, and the explorer turns that
// into a deterministic "too large" verdict at the next level barrier.
// The sizing saturates at kMaxChunksPerShard chunks per shard (2^26
// states), so any capacity up to 2^64 - 1 is safe to pass: a
// budget-sized bound far beyond memory costs a fixed 256 KiB of chunk
// pointers per shard, never a wrapped (tiny) or unallocatable array.
#ifndef SSNO_MC_STORE_HPP
#define SSNO_MC_STORE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace ssno::mc {

class StateStore {
 public:
  static constexpr std::uint64_t kNoId = ~0ULL;

  /// `words`: key width; `capacity`: hard state-count bound.
  StateStore(int words, std::uint64_t capacity, int shardsLog2 = 6);
  ~StateStore();

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  struct Ref {
    std::uint64_t id = kNoId;
    bool inserted = false;
    bool legit = false;
    std::uint32_t depth = 0;
  };

  /// Interns `key`.  When the key is new, stores depth and parent and
  /// evaluates `legitNow` (the caller's protocol must currently hold
  /// exactly this configuration) under the shard lock.  When the key
  /// exists at the same depth and `parentKey` is non-null, performs the
  /// canonical-min parent update.  On arena exhaustion returns
  /// {kNoId, false, true, 0} and sets overflowed().
  Ref intern(const std::uint64_t* key, std::uint64_t hash,
             std::uint32_t depth, const std::function<bool()>& legitNow,
             const std::uint64_t* parentKey = nullptr,
             std::uint64_t parentId = kNoId, std::uint32_t parentMove = 0);

  /// Lock-free lookup; only safe while no intern() runs concurrently
  /// (the explorer's counterexample report).  kNoId if absent.
  [[nodiscard]] std::uint64_t find(const std::uint64_t* key,
                                   std::uint64_t hash) const;

  [[nodiscard]] const std::uint64_t* keyOf(std::uint64_t id) const {
    return keyChunk(id) + (chunkOffset(id) * static_cast<std::size_t>(words_));
  }
  [[nodiscard]] bool legit(std::uint64_t id) const {
    return metaOf(id).legit != 0;
  }
  [[nodiscard]] std::uint32_t depth(std::uint64_t id) const {
    return metaOf(id).depth;
  }
  [[nodiscard]] std::uint64_t parentOf(std::uint64_t id) const {
    return metaOf(id).parent;
  }
  [[nodiscard]] std::uint32_t parentMoveOf(std::uint64_t id) const {
    return metaOf(id).parentMove;
  }

  [[nodiscard]] int words() const { return words_; }
  [[nodiscard]] std::uint64_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool overflowed() const {
    return overflowed_.load(std::memory_order_relaxed);
  }
  /// Exclusive upper bound on assigned ids (for dense side arrays).
  [[nodiscard]] std::uint64_t idBound() const;

  /// Occupancy of the probe tables (states / slots, 0..~0.7).  Takes
  /// every shard lock; call at level barriers, not on the hot path.
  [[nodiscard]] double loadFactor() const;

 private:
  static constexpr int kChunkLog2 = 12;  // 4096 states per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkLog2;
  static constexpr std::uint64_t kMaxChunksPerShard = std::uint64_t{1} << 14;

  struct Meta {
    std::uint64_t parent = kNoId;
    std::uint32_t parentMove = 0;
    std::uint32_t depth = 0;
    std::uint8_t legit = 0;
  };

  struct Slot {
    std::uint64_t hash = 0;
    std::uint64_t id = kNoId;
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<Slot> table;  // power-of-two open addressing
    std::uint64_t count = 0;
    std::unique_ptr<std::atomic<std::uint64_t*>[]> keyChunks;
    std::unique_ptr<std::atomic<Meta*>[]> metaChunks;
  };

  /// Probe-table home position: the shard already consumed the low
  /// hash bits, so index the table with the bits above them (otherwise
  /// all keys in a shard collide into 1/shards of the home slots).
  [[nodiscard]] std::size_t tableIndex(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> shardsLog2_);
  }

  [[nodiscard]] std::size_t shardOf(std::uint64_t id) const {
    return static_cast<std::size_t>(id) & shardMask_;
  }
  [[nodiscard]] std::size_t localOf(std::uint64_t id) const {
    return static_cast<std::size_t>(id >> shardsLog2_);
  }
  [[nodiscard]] std::size_t chunkOffset(std::uint64_t id) const {
    return localOf(id) & (kChunkSize - 1);
  }
  [[nodiscard]] const std::uint64_t* keyChunk(std::uint64_t id) const {
    return shards_[shardOf(id)]
        .keyChunks[localOf(id) >> kChunkLog2]
        .load(std::memory_order_acquire);
  }
  [[nodiscard]] Meta& metaOf(std::uint64_t id) const {
    return shards_[shardOf(id)]
        .metaChunks[localOf(id) >> kChunkLog2]
        .load(std::memory_order_acquire)[chunkOffset(id)];
  }

  /// True iff candidate (keyA, moveA) precedes incumbent (keyB, moveB)
  /// in the canonical order.
  [[nodiscard]] bool parentPrecedes(const std::uint64_t* keyA,
                                    std::uint32_t moveA,
                                    const std::uint64_t* keyB,
                                    std::uint32_t moveB) const;

  void growTable(Shard& sh);

  int words_;
  int shardsLog2_;
  std::size_t shardMask_;
  std::size_t chunksPerShard_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> size_{0};
  std::atomic<bool> overflowed_{false};
};

}  // namespace ssno::mc

#endif  // SSNO_MC_STORE_HPP
