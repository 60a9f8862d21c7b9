#include "serve/cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <stdexcept>

#include "io/fault.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"

namespace ssno::serve {
namespace {

namespace fs = std::filesystem;

// Mirrors of the cache's own atomics, incremented at the identical
// sites, so the `metrics` exposition always agrees with the `stats`
// verb / ResultCache::counters().
const obs::Counter kCacheHits =
    obs::Registry::global().counter("serve_cache_hits_total");
const obs::Counter kCacheMisses =
    obs::Registry::global().counter("serve_cache_misses_total");
const obs::Counter kCacheBad =
    obs::Registry::global().counter("serve_cache_bad_records_total");
const obs::Counter kCacheStores =
    obs::Registry::global().counter("serve_cache_stores_total");
const obs::Counter kCacheStoreFailures =
    obs::Registry::global().counter("serve_cache_store_failures_total");
const obs::Counter kCachePruned =
    obs::Registry::global().counter("serve_cache_pruned_total");

// 1 while the service is running without a working cache (store failed
// or startup fell back to cacheless); 0 once a store succeeds again.
const obs::Gauge kServeDegraded =
    obs::Registry::global().gauge("serve_degraded");

constexpr const char* kMagic = "ssno-result-cache v1";

std::string hex32(std::uint32_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = kHex[v & 0xF];
  return out;
}

/// Takes the next '\n'-terminated line off the front of `rest`.
std::optional<std::string_view> takeLine(std::string_view& rest) {
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) return std::nullopt;
  const std::string_view line = rest.substr(0, nl);
  rest.remove_prefix(nl + 1);
  return line;
}

/// Takes the next line off `rest` if it reads "key value"; returns the
/// value.
std::optional<std::string_view> takeHeader(std::string_view& rest,
                                           std::string_view key) {
  const auto line = takeLine(rest);
  if (!line || line->size() <= key.size() || !line->starts_with(key) ||
      (*line)[key.size()] != ' ')
    return std::nullopt;
  return line->substr(key.size() + 1);
}

/// The bytes of the file at `path`, or nullopt when it cannot be
/// opened.  A read error ends the bytes early, which no record passes.
std::optional<std::string> readWhole(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string data;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof chunk)) != 0;) {
    if (n > 0)
      data.append(chunk, static_cast<std::size_t>(n));
    else if (errno != EINTR)
      break;
  }
  ::close(fd);
  return data;
}

}  // namespace

std::uint32_t crc32(std::string_view data) { return io::crc32(data); }

ResultCache::ResultCache(std::string dir, std::string salt)
    : dir_(std::move(dir)), salt_(std::move(salt)) {
  std::error_code ec;
  io::createDirectories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw std::runtime_error("ResultCache: cannot create directory " + dir_);
}

std::string ResultCache::keyHex(const exp::Scenario& s) const {
  return keyFor(exp::canonicalScenario(s));
}

std::string ResultCache::keyFor(std::string_view canon) const {
  return exp::canonicalDigest(canon, salt_).hex();
}

std::string ResultCache::recordPath(const std::string& key) const {
  return dir_ + "/" + key.substr(0, 2) + "/" + key + ".rec";
}

std::optional<std::string> ResultCache::readRecord(std::string_view canon,
                                                   bool* bad) const {
  const std::string key = keyFor(canon);
  std::optional<std::string> data = readWhole(recordPath(key));
  *bad = data.has_value();
  if (!data) return std::nullopt;  // plain miss: no record yet
  // From here on every anomaly is a *bad* record, not a plain miss.
  std::string_view rest = *data;
  if (takeLine(rest) != kMagic || takeHeader(rest, "salt") != salt_ ||
      takeHeader(rest, "key") != key || takeHeader(rest, "scenario") != canon)
    return std::nullopt;
  const auto bytesField = takeHeader(rest, "bytes");
  if (!bytesField) return std::nullopt;
  std::size_t bytes = 0;
  const char* const end = bytesField->data() + bytesField->size();
  const auto [stop, ec] = std::from_chars(bytesField->data(), end, bytes);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  const auto crc = takeHeader(rest, "crc32");
  // The payload is exactly the rest of the file.
  if (!crc || rest.size() != bytes || hex32(crc32(rest)) != *crc)
    return std::nullopt;
  *bad = false;
  data->erase(0, data->size() - rest.size());
  return data;
}

std::optional<std::string> ResultCache::fetch(const exp::Scenario& s) {
  bool bad = false;
  auto payload = readRecord(exp::canonicalScenario(s), &bad);
  if (bad) {
    ++badRecords_;
    kCacheBad.inc();
  }
  if (payload) {
    ++hits_;
    kCacheHits.inc();
  } else {
    ++misses_;
    kCacheMisses.inc();
  }
  return payload;
}

std::optional<exp::ScenarioResult> ResultCache::fetchResult(
    const exp::Scenario& s) {
  bool bad = false;
  const auto payload = readRecord(exp::canonicalScenario(s), &bad);
  if (payload) {
    try {
      exp::ScenarioResult r = exp::parseResultPayload(*payload);
      r.scenario = s;
      ++hits_;
      kCacheHits.inc();
      return r;
    } catch (const std::invalid_argument&) {
      bad = true;  // structurally sound record, semantically unusable
    }
  }
  if (bad) {
    ++badRecords_;
    kCacheBad.inc();
  }
  ++misses_;
  kCacheMisses.inc();
  return std::nullopt;
}

bool ResultCache::store(const exp::Scenario& s, std::string_view payload) {
  const std::string canon = exp::canonicalScenario(s);
  const std::string key = keyFor(canon);
  const std::string path = recordPath(key);
  const std::string temp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(tempSeq_.fetch_add(1));
  const auto failed = [&] {
    std::error_code rmEc;
    fs::remove(temp, rmEc);
    ++storeFailures_;
    kCacheStoreFailures.inc();
    kServeDegraded.set(1);
    return false;
  };
  std::error_code ec;
  io::createDirectories(fs::path(path).parent_path().string(), ec);
  std::string record = kMagic;
  record += "\nsalt " + salt_ + "\nkey " + key + "\nscenario " + canon +
            "\nbytes " +
            std::to_string(payload.size()) + "\ncrc32 " +
            hex32(crc32(payload)) + "\n";
  record.append(payload.data(), payload.size());
  {
    // The full crash-consistency sequence: write, fsync the FILE, close,
    // rename, fsync the parent DIRECTORY — a crash at any point leaves
    // either no record or a complete one at the final path (anything
    // torn sits in a .tmp the reader never opens).
    io::File out = io::File::createTrunc(temp);
    if (!out.valid() || !out.writeAll(record) || !out.sync() || !out.close())
      return failed();
  }
  if (!io::atomicReplace(temp, path)) return failed();
  ++stores_;
  kCacheStores.inc();
  kServeDegraded.set(0);
  return true;
}

bool ResultCache::storeResult(const exp::ScenarioResult& r) {
  return store(r.scenario, exp::resultPayload(r));
}

ResultCache::PruneStats ResultCache::prune(std::uint64_t maxBytes) {
  // Gather every record file with its mtime and size; all filesystem
  // calls are non-throwing (error_code overloads) — a racing writer or
  // deleter costs at most one skipped file.
  struct Record {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t bytes = 0;
  };
  std::vector<Record> records;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec) || it->path().extension() != ".rec")
      continue;
    Record r;
    r.path = it->path();
    r.mtime = fs::last_write_time(r.path, ec);
    if (ec) { ec.clear(); continue; }
    r.bytes = fs::file_size(r.path, ec);
    if (ec) { ec.clear(); continue; }
    total += r.bytes;
    records.push_back(std::move(r));
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime
                                        : a.path < b.path;
            });
  PruneStats stats;
  for (const Record& r : records) {
    if (total > maxBytes) {
      std::error_code rmEc;
      if (fs::remove(r.path, rmEc) && !rmEc) {
        total -= r.bytes;
        ++stats.removed;
        stats.bytesRemoved += r.bytes;
        continue;
      }
    }
    ++stats.kept;
    stats.bytesKept += r.bytes;
  }
  kCachePruned.inc(stats.removed);
  return stats;
}

ResultCache::Counters ResultCache::counters() const {
  Counters c;
  c.hits = hits_.load();
  c.misses = misses_.load();
  c.badRecords = badRecords_.load();
  c.stores = stores_.load();
  c.storeFailures = storeFailures_.load();
  return c;
}

std::vector<exp::ScenarioResult> runAllCached(
    const exp::ExperimentRunner& runner,
    const std::vector<exp::Scenario>& scenarios, ResultCache* cache) {
  if (cache == nullptr) return runner.runAll(scenarios);
  std::vector<std::optional<exp::ScenarioResult>> slots(scenarios.size());
  std::vector<exp::Scenario> missed;
  std::vector<std::size_t> missedAt;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    slots[i] = cache->fetchResult(scenarios[i]);
    if (!slots[i]) {
      missed.push_back(scenarios[i]);
      missedAt.push_back(i);
    }
  }
  const std::vector<exp::ScenarioResult> fresh = runner.runAll(missed);
  for (std::size_t j = 0; j < fresh.size(); ++j) {
    cache->storeResult(fresh[j]);
    slots[missedAt[j]] = fresh[j];
  }
  std::vector<exp::ScenarioResult> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace ssno::serve
