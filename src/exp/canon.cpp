#include "exp/canon.hpp"

#include <map>
#include <sstream>
#include <stdexcept>

#include "exp/fmt.hpp"
#include "exp/scenario.hpp"

namespace ssno::exp {
namespace {

/// Full-consumption numeric parse; throws with the offending token.
template <typename T>
T parseNumber(const std::string& key, const std::string& value) {
  if (const std::optional<T> v = parseWhole<T>(value)) return *v;
  throw std::invalid_argument("canonical scenario: bad value in '" + key +
                              "=" + value + "'");
}

void appendHex64(std::string& out, std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4)
    out += kHex[(v >> shift) & 0xF];
}

}  // namespace

std::string Digest128::hex() const {
  std::string out;
  out.reserve(32);
  appendHex64(out, hi);
  appendHex64(out, lo);
  return out;
}

Digest128 fnv1a128(std::string_view data) {
  using u128 = unsigned __int128;
  // Reference FNV-1a 128-bit offset basis and prime (2^88 + 2^8 + 0x3b).
  u128 h = (u128{0x6c62272e07bb0142ull} << 64) | 0x62b821756295c58dull;
  const u128 prime = (u128{1} << 88) | 0x13b;
  for (const unsigned char c : data) {
    h ^= c;
    h *= prime;
  }
  return {static_cast<std::uint64_t>(h >> 64),
          static_cast<std::uint64_t>(h)};
}

std::string canonicalScenario(const Scenario& s) {
  // Fixed emission order; every field present; defaults written out.
  // Adding a field here REQUIRES bumping "canon=2" and the cache salt.
  // The fault plan is whitespace-free by grammar; an empty plan is the
  // "-" sentinel so the token is never empty.
  std::string out = "canon=2";
  out += " protocol=" + protocolKindName(s.protocol);
  out += " mc-target=" + mcTargetName(s.mcTarget);
  out += " daemon=" + daemonKindName(s.daemon);
  out += " topology=" + s.topology.name();
  out += " trials=" + std::to_string(s.trials);
  out += " seed=" + std::to_string(s.seed);
  out += " budget=" + std::to_string(s.budget);
  out += " rate=" + shortestDouble(s.faultRate);
  out += " k=" + std::to_string(s.faultK);
  out += " mc-threads=" + std::to_string(s.mcThreads);
  out += " fault-plan=" + (s.faultPlan.empty() ? "-" : s.faultPlan);
  out += " adversary=" + s.adversary;
  out += " lookahead=" + std::to_string(s.lookahead);
  return out;
}

Scenario parseCanonicalScenario(const std::string& text) {
  std::istringstream fields(text);
  std::string token;
  if (!(fields >> token) || token != "canon=2")
    throw std::invalid_argument(
        "canonical scenario: expected leading 'canon=2'");
  std::map<std::string, std::string> kv;
  while (fields >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size())
      throw std::invalid_argument("canonical scenario: malformed token '" +
                                  token + "'");
    if (!kv.emplace(token.substr(0, eq), token.substr(eq + 1)).second)
      throw std::invalid_argument("canonical scenario: duplicate key '" +
                                  token.substr(0, eq) + "'");
  }
  static constexpr const char* kKeys[] = {
      "protocol", "mc-target", "daemon",     "topology",   "trials",
      "seed",     "budget",    "rate",       "k",          "mc-threads",
      "fault-plan", "adversary", "lookahead"};
  for (const char* key : kKeys)
    if (!kv.count(key))
      throw std::invalid_argument(std::string("canonical scenario: missing '") +
                                  key + "'");
  if (kv.size() != std::size(kKeys))
    throw std::invalid_argument("canonical scenario: unknown key present");

  Scenario s;
  s.protocol = parseProtocolKind(kv["protocol"]);
  s.mcTarget = parseMcTarget(kv["mc-target"]);
  s.daemon = parseDaemonKind(kv["daemon"]);
  s.topology = TopologySpec::parse(kv["topology"]);
  s.trials = parseNumber<int>("trials", kv["trials"]);
  s.seed = parseNumber<std::uint64_t>("seed", kv["seed"]);
  s.budget = parseNumber<StepCount>("budget", kv["budget"]);
  s.faultRate = parseNumber<double>("rate", kv["rate"]);
  s.faultK = parseNumber<int>("k", kv["k"]);
  s.mcThreads = parseNumber<int>("mc-threads", kv["mc-threads"]);
  s.faultPlan = kv["fault-plan"] == "-" ? std::string{} : kv["fault-plan"];
  s.adversary = kv["adversary"];
  s.lookahead = parseNumber<int>("lookahead", kv["lookahead"]);
  try {
    validateLimits(s);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("canonical scenario: ") +
                                e.what());
  }
  s.name = protocolKindName(s.protocol) +
           (s.protocol == ProtocolKind::kModelCheck
                ? ":" + mcTargetName(s.mcTarget)
                : std::string{}) +
           "/" + daemonKindName(s.daemon) + "/" + s.topology.name();
  return s;
}

Digest128 scenarioDigest(const Scenario& s, std::string_view salt) {
  return canonicalDigest(canonicalScenario(s), salt);
}

Digest128 canonicalDigest(std::string_view canon, std::string_view salt) {
  std::string bytes(salt);
  bytes += '\n';
  bytes += canon;
  return fnv1a128(bytes);
}

std::string resultPayload(const ScenarioResult& r) {
  std::string out;
  out += "nodes " + std::to_string(r.nodeCount) + "\n";
  out += "edges " + std::to_string(r.edgeCount) + "\n";
  out += "trials " + std::to_string(r.trials) + "\n";
  out += "failed " + std::to_string(r.failedTrials) + "\n";
  out += "cores " + std::to_string(r.cores) + "\n";
  for (const auto& [name, m] : r.metrics) {
    out += "metric " + name + " " + std::to_string(m.count) + " " +
           shortestDouble(m.min) + " " + shortestDouble(m.max) + " " +
           shortestDouble(m.mean) + " " + shortestDouble(m.stddev) + " " +
           shortestDouble(m.p50) + " " + shortestDouble(m.p95) + "\n";
  }
  return out;
}

ScenarioResult parseResultPayload(const std::string& payload) {
  std::istringstream in(payload);
  auto fail = [](const std::string& what) -> std::invalid_argument {
    return std::invalid_argument("result payload: " + what);
  };
  auto scalarLine = [&in, &fail](const char* key) -> std::string {
    std::string k, v;
    if (!(in >> k >> v) || k != key)
      throw fail(std::string("expected '") + key + "'");
    return v;
  };
  ScenarioResult r;
  r.nodeCount = parseNumber<int>("nodes", scalarLine("nodes"));
  r.edgeCount = parseNumber<int>("edges", scalarLine("edges"));
  r.trials = parseNumber<int>("trials", scalarLine("trials"));
  r.failedTrials = parseNumber<int>("failed", scalarLine("failed"));
  r.cores = parseNumber<int>("cores", scalarLine("cores"));
  std::string tag;
  while (in >> tag) {
    if (tag != "metric") throw fail("unexpected token '" + tag + "'");
    std::string name, count, mn, mx, mean, stddev, p50, p95;
    if (!(in >> name >> count >> mn >> mx >> mean >> stddev >> p50 >> p95))
      throw fail("truncated metric line");
    if (r.metrics.count(name)) throw fail("duplicate metric '" + name + "'");
    Summary m;
    m.count = parseNumber<int>("count", count);
    m.min = parseNumber<double>("min", mn);
    m.max = parseNumber<double>("max", mx);
    m.mean = parseNumber<double>("mean", mean);
    m.stddev = parseNumber<double>("stddev", stddev);
    m.p50 = parseNumber<double>("p50", p50);
    m.p95 = parseNumber<double>("p95", p95);
    r.metrics.emplace(name, m);
  }
  return r;
}

}  // namespace ssno::exp
