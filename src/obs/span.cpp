#include "obs/span.hpp"

#include <cmath>
#include <mutex>
#include <sstream>

#include "util/contract.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace braidio::obs {

namespace {

// Power series stop extending past this many buckets per key; posts
// beyond it count toward series_skipped(). 64Ki buckets at the default
// 1 s bucket covers ~18 hours of simulated time per key.
constexpr std::size_t kMaxSeriesBuckets = std::size_t{1} << 16;

// Span labels may not contain the path separator ('/'), the collapsed-
// stack frame separator (';'), the collapsed-stack value separator
// (' '), or control characters — replace them so every exporter stays
// parseable no matter what label a caller passes.
void append_sanitized(std::string& out, const char* label) {
  for (const char* p = label; *p != '\0'; ++p) {
    const char c = *p;
    const bool bad = c == '/' || c == ';' || c == ' ' ||
                     static_cast<unsigned char>(c) < 0x20;
    out += bad ? '_' : c;
  }
}

/// The first two '/'-separated segments of `path` (the whole path when
/// it has fewer) — the power-series key, typically "exchange/device".
std::string series_key(const std::string& path) {
  std::size_t slash = path.find('/');
  if (slash == std::string::npos) return path;
  slash = path.find('/', slash + 1);
  if (slash == std::string::npos) return path;
  return path.substr(0, slash);
}

}  // namespace

void EnergyProfile::post(const std::string& path, double joules,
                         double sim_time_s) {
  BRAIDIO_REQUIRE(!path.empty(), "path_length", path.size());
  BRAIDIO_REQUIRE(std::isfinite(joules) && joules >= 0.0, "joules",
                  joules);
  Slot& slot = entries_[path];
  slot.joules += joules;
  slot.posts += 1;
  if (std::isfinite(sim_time_s) && sim_time_s >= 0.0) {
    const auto bucket = static_cast<std::size_t>(
        sim_time_s / bucket_seconds_);
    if (bucket < kMaxSeriesBuckets) {
      std::vector<double>& track = series_[series_key(path)];
      if (track.size() <= bucket) track.resize(bucket + 1, 0.0);
      track[bucket] += joules;
    } else {
      ++series_skipped_;
    }
  }
}

double EnergyProfile::total_joules() const {
  double total = 0.0;
  for (const auto& [path, slot] : entries_) total += slot.joules;
  return total;
}

std::uint64_t EnergyProfile::total_posts() const {
  std::uint64_t total = 0;
  for (const auto& [path, slot] : entries_) total += slot.posts;
  return total;
}

void EnergyProfile::set_bucket_seconds(double seconds) {
  BRAIDIO_REQUIRE(empty(), "entries", entries_.size());
  BRAIDIO_REQUIRE(std::isfinite(seconds) && seconds > 0.0,
                  "bucket_seconds", seconds);
  bucket_seconds_ = seconds;
}

void EnergyProfile::merge(const EnergyProfile& other) {
  if (other.entries_.empty() && other.series_skipped_ == 0) return;
  BRAIDIO_REQUIRE(bucket_seconds_ == other.bucket_seconds_,
                  "bucket_seconds", bucket_seconds_, "other",
                  other.bucket_seconds_);
  for (const auto& [path, slot] : other.entries_) {
    Slot& mine = entries_[path];
    mine.joules += slot.joules;
    mine.posts += slot.posts;
  }
  for (const auto& [key, track] : other.series_) {
    std::vector<double>& mine = series_[key];
    if (mine.size() < track.size()) mine.resize(track.size(), 0.0);
    for (std::size_t b = 0; b < track.size(); ++b) mine[b] += track[b];
  }
  series_skipped_ += other.series_skipped_;
}

void EnergyProfile::clear() { *this = EnergyProfile(); }

std::string EnergyProfile::to_json() const {
  util::json::Writer w;
  w.begin_object().key("schema").value("braidio-energy-profile/v1");
  w.key("bucket_seconds").value(bucket_seconds_);
  w.key("total_joules").value(total_joules());
  w.key("total_posts").value(total_posts());
  w.key("series_skipped").value(series_skipped_);
  w.key("attributions").begin_array();
  for (const auto& [path, slot] : entries_) {
    w.begin_object().key("path").value(path).key("joules").value(slot.joules);
    w.key("posts").value(slot.posts).end_object();
  }
  w.end_array().key("series").begin_object();
  for (const auto& [key, track] : series_) w.key(key).array(track);
  return w.end_object().end_object().str();
}

std::string EnergyProfile::to_collapsed_stack() const {
  std::string out;
  for (const auto& [path, slot] : entries_) {
    std::string line = path;
    for (char& c : line) {
      if (c == '/') c = ';';
    }
    out += line;
    out += ' ';
    // Flame-graph counts are integers; nanojoules keep sub-microjoule
    // attributions visible without losing conservation past ~0.5 nJ
    // per path.
    out += std::to_string(std::llround(slot.joules * 1e9));
    out += '\n';
  }
  return out;
}

std::string EnergyProfile::to_chrome_counters() const {
  util::json::Writer w;
  w.begin_object().key("traceEvents").begin_array();
  for (const auto& [key, track] : series_) {
    for (std::size_t b = 0; b < track.size(); ++b) {
      w.begin_object().key("name").value("power:" + key);
      w.key("ph").value("C").key("pid").value(0).key("tid").value(0);
      w.key("ts").value(static_cast<double>(b) * bucket_seconds_ * 1e6);
      w.key("args").begin_object();
      w.key("w").value(track[b] / bucket_seconds_).end_object().end_object();
    }
  }
  w.end_array().key("displayTimeUnit").value("ms");
  w.key("otherData").begin_object();
  w.key("bucket_seconds").value(bucket_seconds_).end_object();
  return w.end_object().str();
}

std::string EnergyProfile::tree_report() const {
  // Roll leaf totals up into every ancestor prefix. std::map keeps the
  // prefixes in DFS order because a path always sorts right after its
  // own prefix.
  std::map<std::string, Slot> nodes;
  for (const auto& [path, slot] : entries_) {
    std::size_t from = 0;
    while (true) {
      const std::size_t slash = path.find('/', from);
      const std::string prefix =
          path.substr(0, slash == std::string::npos ? path.size()
                                                    : slash);
      Slot& node = nodes[prefix];
      node.joules += slot.joules;
      if (slash == std::string::npos) {
        node.posts += slot.posts;
        break;
      }
      from = slash + 1;
    }
  }
  const double total = total_joules();
  std::ostringstream os;
  os << "energy attribution: " << util::format_engineering(total, 4)
     << "J over " << total_posts() << " posts\n";
  for (const auto& [prefix, node] : nodes) {
    std::size_t depth = 0;
    for (char c : prefix) {
      if (c == '/') ++depth;
    }
    const std::size_t last = prefix.rfind('/');
    const std::string name =
        last == std::string::npos ? prefix : prefix.substr(last + 1);
    const double share = total > 0.0 ? node.joules / total : 0.0;
    os << std::string(2 * (depth + 1), ' ') << name << "  "
       << util::format_engineering(node.joules, 4) << "J";
    std::ostringstream pct;
    pct.precision(1);
    pct << std::fixed << 100.0 * share;
    os << "  " << pct.str() << "%\n";
  }
  return os.str();
}

util::TablePrinter EnergyProfile::to_table() const {
  util::TablePrinter table({"path", "joules", "posts", "share"});
  const double total = total_joules();
  for (const auto& [path, slot] : entries_) {
    std::ostringstream pct;
    pct.precision(1);
    pct << std::fixed
        << (total > 0.0 ? 100.0 * slot.joules / total : 0.0) << "%";
    table.add_row({path, util::format_engineering(slot.joules, 4),
                   std::to_string(slot.posts), pct.str()});
  }
  return table;
}

// ---------------------------------------------------------------------
// Hook plumbing: thread-local span stack + scoped profile + global.
// ---------------------------------------------------------------------

namespace detail {
std::atomic<bool> g_attribution_enabled{false};
}  // namespace detail

namespace {

// The current thread's span path, kept pre-joined so a post is a single
// string concatenation: push appends "/label", pop truncates back to
// the recorded length.
struct SpanStack {
  std::string prefix;
  std::vector<std::size_t> lengths;
};

thread_local SpanStack t_spans;

thread_local EnergyProfile* t_profile = nullptr;

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

EnergyProfile& global_profile() {
  static EnergyProfile profile;
  return profile;
}

}  // namespace

void set_attribution_enabled(bool on) {
  detail::g_attribution_enabled.store(on, std::memory_order_relaxed);
}

EnergyProfile* current_energy_profile() { return t_profile; }

ScopedEnergyProfile::ScopedEnergyProfile(EnergyProfile* profile)
    : previous_(t_profile) {
  t_profile = profile;
}

ScopedEnergyProfile::~ScopedEnergyProfile() { t_profile = previous_; }

EnergyProfile global_energy_profile_snapshot() {
  std::lock_guard<std::mutex> lock(global_mu());
  return global_profile();
}

void reset_global_energy_profile() {
  std::lock_guard<std::mutex> lock(global_mu());
  global_profile().clear();
}

namespace detail {

void push_span(const char* label) {
  SpanStack& spans = t_spans;
  spans.lengths.push_back(spans.prefix.size());
  if (!spans.prefix.empty()) spans.prefix += '/';
  append_sanitized(spans.prefix, label);
}

void pop_span() {
  SpanStack& spans = t_spans;
  BRAIDIO_REQUIRE(!spans.lengths.empty(), "span_depth",
                  spans.lengths.size());
  spans.prefix.resize(spans.lengths.back());
  spans.lengths.pop_back();
}

void post_energy_slow(const char* category, double joules,
                      double sim_time_s) {
  std::string path = t_spans.prefix;
  if (!path.empty()) path += '/';
  append_sanitized(path, category);
  if (EnergyProfile* p = t_profile) {
    p->post(path, joules, sim_time_s);
    return;
  }
  std::lock_guard<std::mutex> lock(global_mu());
  global_profile().post(path, joules, sim_time_s);
}

}  // namespace detail

}  // namespace braidio::obs
