#include "mc/store.hpp"

#include <algorithm>
#include <cstring>

#include "core/assert.hpp"
#include "obs/metrics.hpp"

namespace ssno::mc {
namespace {

constexpr std::size_t kInitialTable = 1024;

const obs::Histogram kProbeLen =
    obs::Registry::global().histogram("mc_store_probe_len");

}  // namespace

StateStore::StateStore(int words, std::uint64_t capacity, int shardsLog2)
    : words_(words), shardsLog2_(shardsLog2) {
  SSNO_EXPECTS(words >= 1 && shardsLog2 >= 0 && shardsLog2 <= 16);
  const std::size_t shardCount = std::size_t{1} << shardsLog2_;
  shardMask_ = shardCount - 1;
  // 4x headroom per shard against hash skew, and at least one chunk;
  // saturating, so no capacity wraps the product.
  const std::uint64_t maxPerShard = kMaxChunksPerShard * kChunkSize;
  const std::uint64_t perShard =
      capacity / shardCount >= maxPerShard / 4
          ? maxPerShard
          : std::max<std::uint64_t>(capacity * 4 / shardCount, 1) +
                kChunkSize;
  chunksPerShard_ = static_cast<std::size_t>(std::min(
      (perShard + kChunkSize - 1) / kChunkSize, kMaxChunksPerShard));
  shards_ = std::vector<Shard>(shardCount);
  for (Shard& sh : shards_) {
    sh.table.assign(kInitialTable, Slot{});
    sh.keyChunks =
        std::make_unique<std::atomic<std::uint64_t*>[]>(chunksPerShard_);
    sh.metaChunks = std::make_unique<std::atomic<Meta*>[]>(chunksPerShard_);
    for (std::size_t c = 0; c < chunksPerShard_; ++c) {
      sh.keyChunks[c].store(nullptr, std::memory_order_relaxed);
      sh.metaChunks[c].store(nullptr, std::memory_order_relaxed);
    }
  }
}

StateStore::~StateStore() {
  for (Shard& sh : shards_) {
    for (std::size_t c = 0; c < chunksPerShard_; ++c) {
      delete[] sh.keyChunks[c].load(std::memory_order_relaxed);
      delete[] sh.metaChunks[c].load(std::memory_order_relaxed);
    }
  }
}

bool StateStore::parentPrecedes(const std::uint64_t* keyA, std::uint32_t moveA,
                                const std::uint64_t* keyB,
                                std::uint32_t moveB) const {
  for (int w = 0; w < words_; ++w) {
    if (keyA[w] != keyB[w]) return keyA[w] < keyB[w];
  }
  return moveA < moveB;
}

void StateStore::growTable(Shard& sh) {
  std::vector<Slot> next(sh.table.size() * 2, Slot{});
  const std::size_t mask = next.size() - 1;
  for (const Slot& s : sh.table) {
    if (s.id == kNoId) continue;
    std::size_t at = tableIndex(s.hash) & mask;
    while (next[at].id != kNoId) at = (at + 1) & mask;
    next[at] = s;
  }
  sh.table = std::move(next);
}

StateStore::Ref StateStore::intern(const std::uint64_t* key,
                                   std::uint64_t hash, std::uint32_t depth,
                                   const std::function<bool()>& legitNow,
                                   const std::uint64_t* parentKey,
                                   std::uint64_t parentId,
                                   std::uint32_t parentMove) {
  Shard& sh = shards_[static_cast<std::size_t>(hash) & shardMask_];
  std::lock_guard<std::mutex> lock(sh.mu);

  std::size_t mask = sh.table.size() - 1;
  std::size_t at = tableIndex(hash) & mask;
  std::uint64_t probes = 0;
  while (sh.table[at].id != kNoId) {
    ++probes;
    if (sh.table[at].hash == hash &&
        std::memcmp(keyOf(sh.table[at].id), key,
                    static_cast<std::size_t>(words_) * 8) == 0) {
      kProbeLen.observe(probes);
      const std::uint64_t id = sh.table[at].id;
      Meta& m = metaOf(id);
      if (parentKey != nullptr && m.depth == depth) {
        // Canonical-min parent among same-depth discoverers: the
        // incumbent's key lives in a stable chunk, safe to read here.
        if (m.parent == kNoId ||
            parentPrecedes(parentKey, parentMove, keyOf(m.parent),
                           m.parentMove)) {
          m.parent = parentId;
          m.parentMove = parentMove;
        }
      }
      return {id, false, m.legit != 0, m.depth};
    }
    at = (at + 1) & mask;
  }

  kProbeLen.observe(probes);

  // New state: claim the next arena slot.
  const std::size_t local = static_cast<std::size_t>(sh.count);
  const std::size_t chunk = local >> kChunkLog2;
  if (chunk >= chunksPerShard_) {
    overflowed_.store(true, std::memory_order_relaxed);
    return {kNoId, false, true, depth};
  }
  if ((local & (kChunkSize - 1)) == 0) {
    sh.keyChunks[chunk].store(
        new std::uint64_t[kChunkSize * static_cast<std::size_t>(words_)],
        std::memory_order_release);
    sh.metaChunks[chunk].store(new Meta[kChunkSize],
                               std::memory_order_release);
  }
  const std::uint64_t id =
      (static_cast<std::uint64_t>(local) << shardsLog2_) |
      (hash & shardMask_);
  std::memcpy(
      sh.keyChunks[chunk].load(std::memory_order_relaxed) +
          (local & (kChunkSize - 1)) * static_cast<std::size_t>(words_),
      key, static_cast<std::size_t>(words_) * 8);
  Meta& m = metaOf(id);
  m.parent = parentKey != nullptr ? parentId : kNoId;
  m.parentMove = parentMove;
  m.depth = depth;
  m.legit = legitNow() ? 1 : 0;

  sh.table[at] = Slot{hash, id};
  ++sh.count;
  size_.fetch_add(1, std::memory_order_relaxed);
  if (sh.count * 10 > sh.table.size() * 7) growTable(sh);
  return {id, true, m.legit != 0, depth};
}

std::uint64_t StateStore::find(const std::uint64_t* key,
                               std::uint64_t hash) const {
  const Shard& sh = shards_[static_cast<std::size_t>(hash) & shardMask_];
  const std::size_t mask = sh.table.size() - 1;
  std::size_t at = tableIndex(hash) & mask;
  while (sh.table[at].id != kNoId) {
    if (sh.table[at].hash == hash &&
        std::memcmp(keyOf(sh.table[at].id), key,
                    static_cast<std::size_t>(words_) * 8) == 0)
      return sh.table[at].id;
    at = (at + 1) & mask;
  }
  return kNoId;
}

double StateStore::loadFactor() const {
  std::uint64_t states = 0;
  std::uint64_t slots = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    states += sh.count;
    slots += sh.table.size();
  }
  return slots == 0 ? 0.0
                    : static_cast<double>(states) / static_cast<double>(slots);
}

std::uint64_t StateStore::idBound() const {
  std::uint64_t maxCount = 0;
  for (const Shard& sh : shards_) maxCount = std::max(maxCount, sh.count);
  return maxCount << shardsLog2_;
}

}  // namespace ssno::mc
