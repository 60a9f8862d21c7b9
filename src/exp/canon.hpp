// Canonical scenario serialization and content-addressed result keys.
//
// canonicalScenario() renders every semantic field of a fully-resolved
// Scenario — protocol, daemon, topology spec, trials, seed, budget,
// fault rate, fault k, model-check target and threads — as one line of
// "key=value" tokens in a FIXED order with defaults written out
// explicitly.  Two consequences the result cache depends on:
//
//   * a field left at its default and a field set to that default
//     produce byte-identical text (defaults cannot change the key);
//   * the text round-trips: parseCanonicalScenario(canonicalScenario(s))
//     rebuilds a scenario whose canonical form (and therefore digest)
//     is identical, proved by tests/canon_test.cpp.
//
// The display name is a label, not semantics, and is excluded: two
// differently-named requests for the same work share one cache entry.
// The leading "canon=1" token versions the serialization itself —
// bump it (and the cache salt, see serve/cache.hpp) whenever a field
// is added, removed, or its meaning changes.
//
// resultPayload()/parseResultPayload() serialize the *result* half of a
// ScenarioResult (graph size, trial counts, cores, metric summaries) —
// everything except the Scenario, which the cache reattaches from the
// request so a hit under a different display name reports that name.
// Doubles go through shortestDouble (exact round-trip), so a payload
// parsed from the cache re-emits byte-identical CSV/JSON.
#ifndef SSNO_EXP_CANON_HPP
#define SSNO_EXP_CANON_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/runner.hpp"

namespace ssno::exp {

/// 128-bit content digest (FNV-1a over the canonical bytes): wide
/// enough that distinct scenarios colliding is not a practical concern,
/// cheap enough to run on every cache probe.
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// 32 lowercase hex chars, hi word first.
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const Digest128&, const Digest128&) = default;
};

/// FNV-1a with a 128-bit state (the reference offset/prime constants).
[[nodiscard]] Digest128 fnv1a128(std::string_view data);

/// The canonical one-line form described above (no trailing newline).
[[nodiscard]] std::string canonicalScenario(const Scenario& s);

/// Strict inverse of canonicalScenario(): every field required exactly
/// once, full-consumption numeric parses, unknown keys rejected; throws
/// std::invalid_argument.  The display name is rebuilt in the standard
/// "protocol[:target]/daemon/topology" form.
[[nodiscard]] Scenario parseCanonicalScenario(const std::string& text);

/// Content key for (salt, scenario): the digest of the salt, a newline,
/// and the canonical scenario text.
[[nodiscard]] Digest128 scenarioDigest(const Scenario& s,
                                       std::string_view salt);

/// scenarioDigest() of a scenario whose canonicalScenario() text is
/// `canon`, for callers that have already rendered it.
[[nodiscard]] Digest128 canonicalDigest(std::string_view canon,
                                        std::string_view salt);

/// Serializes the result fields of `r` (everything except r.scenario).
[[nodiscard]] std::string resultPayload(const ScenarioResult& r);

/// Strict inverse of resultPayload(); the returned result's `scenario`
/// is default-constructed (callers reattach their own).  Throws
/// std::invalid_argument on any malformed or trailing input.
[[nodiscard]] ScenarioResult parseResultPayload(const std::string& payload);

}  // namespace ssno::exp

#endif  // SSNO_EXP_CANON_HPP
