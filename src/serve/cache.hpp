// serve/cache — persistent content-addressed experiment result store.
//
// Deterministic per-trial seeding makes every (scenario, seed, budget)
// result bit-reproducible, so caching is EXACT: the record stored for a
// key is byte-identical to what recomputing the scenario on the same
// machine would produce.  Keys are the 128-bit digest of the canonical
// scenario text (exp/canon.hpp) salted with a code-version string, so
// a semantics-affecting code change invalidates the whole store by
// changing every key rather than serving stale data.
//
// On-disk layout: one record file per key, fanned out by the first two
// hex chars to keep directories small —
//
//   <dir>/<k0k1>/<32-hex-key>.rec
//       ssno-result-cache v1
//       salt <salt>
//       key <32-hex>
//       scenario <canonical scenario text>
//       bytes <payload byte count>
//       crc32 <8-hex CRC of the payload>
//       <payload: exactly `bytes` bytes — a resultPayload() body>
//
// Readers treat ANY anomaly — missing file, bad magic, foreign salt,
// key mismatch, short payload, trailing bytes, CRC mismatch, payload
// that fails to parse — as a miss and never throw: a corrupt or
// truncated record costs a recompute, not an outage.  Writers never
// update in place: the record goes to a unique temp file in the final
// directory (written, fsynced, closed), is atomically renamed over the
// destination, and the parent directory is fsynced — so after a crash
// at ANY point the final path holds either nothing or a complete
// record, and concurrent writers of one key race benignly (either
// complete record wins; both are byte-identical by determinism).  All
// writes route through io/file.hpp, so the io/fault.hpp schedule can
// fail or crash any of them deterministically.
//
// WHEN TO BUMP kCacheSalt: any change that alters result bytes for an
// unchanged canonical scenario — trial semantics, RNG streams, metric
// sets or names, summary statistics, resultPayload()/canonical formats.
// Pure performance changes keep the salt.
#ifndef SSNO_SERVE_CACHE_HPP
#define SSNO_SERVE_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/canon.hpp"
#include "exp/runner.hpp"

namespace ssno::serve {

/// Code-version salt baked into every key (see header comment).
/// v2: canonical scenario format gained fault-plan/adversary/lookahead
/// (canon=2), so every v1 key would mismatch its stored scenario line.
/// v3: the model-check trial's naive_states_per_sec became
/// seq_states_per_sec (the one explorer at 1 thread).
/// v4: the scheduler trial reports exact counts and production rates
/// in place of its before/after ratios.
inline constexpr std::string_view kCacheSalt = "ssno-serve-v4";

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `data`.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

class ResultCache {
 public:
  /// Creates `dir` (and parents) if absent; throws std::runtime_error
  /// when the directory cannot be created.
  explicit ResultCache(std::string dir,
                       std::string salt = std::string(kCacheSalt));

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::string& salt() const { return salt_; }

  /// The key this cache derives for `s` (32 lowercase hex chars).
  [[nodiscard]] std::string keyHex(const exp::Scenario& s) const;

  /// Raw payload bytes for `s`, or nullopt on a miss (including any
  /// malformed record, which also counts toward badRecords).
  [[nodiscard]] std::optional<std::string> fetch(const exp::Scenario& s);

  /// fetch + parseResultPayload, with r.scenario reattached from `s`;
  /// an unparseable payload is a miss, never an exception.
  [[nodiscard]] std::optional<exp::ScenarioResult> fetchResult(
      const exp::Scenario& s);

  /// Best effort: returns false (and counts a storeFailure) instead of
  /// throwing when the filesystem misbehaves — an always-on service
  /// must survive a full disk with degraded caching, not crash.  A
  /// failure also raises the `serve_degraded` gauge; the next
  /// successful store clears it.
  bool store(const exp::Scenario& s, std::string_view payload);
  bool storeResult(const exp::ScenarioResult& r);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t badRecords = 0;   ///< corrupt/foreign records seen
    std::uint64_t stores = 0;
    std::uint64_t storeFailures = 0;
  };
  [[nodiscard]] Counters counters() const;

  struct PruneStats {
    std::uint64_t removed = 0;       ///< record files deleted
    std::uint64_t kept = 0;          ///< record files remaining
    std::uint64_t bytesRemoved = 0;
    std::uint64_t bytesKept = 0;
  };
  /// LRU prune: deletes the oldest record files (by mtime — readers
  /// don't touch mtime, so this is write-recency LRU) until the total
  /// record bytes fit in `maxBytes`.  Best effort like store(): files
  /// that vanish or resist deletion are skipped, never thrown on.
  /// Non-record files in the tree are left alone.
  PruneStats prune(std::uint64_t maxBytes);

 private:
  [[nodiscard]] std::string recordPath(const std::string& key) const;
  /// keyHex() of the scenario whose canonical text is `canon`.
  [[nodiscard]] std::string keyFor(std::string_view canon) const;
  /// The payload of the record for canonical text `canon`, or nullopt
  /// on a miss; sets *bad when a file existed but was unusable.
  [[nodiscard]] std::optional<std::string> readRecord(std::string_view canon,
                                                      bool* bad) const;

  std::string dir_;
  std::string salt_;
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, badRecords_{0},
      stores_{0}, storeFailures_{0};
  std::atomic<std::uint64_t> tempSeq_{0};
};

/// Runs `scenarios` like ExperimentRunner::runAll but answers from
/// `cache` where possible: hits are parsed records, misses run through
/// runner.runAll (keeping its cross-scenario trial parallelism) and are
/// stored back.  Result order matches `scenarios`; cache == nullptr
/// degrades to plain runAll.  exp_cli `--cache-dir` is this function.
[[nodiscard]] std::vector<exp::ScenarioResult> runAllCached(
    const exp::ExperimentRunner& runner,
    const std::vector<exp::Scenario>& scenarios, ResultCache* cache);

}  // namespace ssno::serve

#endif  // SSNO_SERVE_CACHE_HPP
