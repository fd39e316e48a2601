#pragma once
// In-memory span log for the traced benchmark run.
//
// Each client thread owns one SpanLog, so recording takes no lock.  A span
// is (name, parent, start, end); spans of one op share the op's root span
// as ancestor.  Spans are recorded only around calls into the library's
// public functions from this benchmark's own code, never inside the
// library.  The logs are merged and summarized after the measurement.
#include <chrono>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  std::ptrdiff_t parent = -1;  // index in the same log; -1 for a root
  Clock::time_point start{};
  Clock::time_point end{};
  bool closed = false;
  double seconds() const { return seconds_between(start, end); }
};

class SpanLog {
 public:
  /// A disabled log records nothing; Scope objects on it cost one branch.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span: opens on construction, closes on destruction.  Nests under
  /// whichever span of this log is open on entry.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.enabled_) return;
      index_ = static_cast<std::ptrdiff_t>(log_.spans_.size());
      Span s;
      s.name = name;
      s.parent = log_.open_;
      log_.spans_.push_back(std::move(s));
      log_.open_ = index_;
      log_.spans_[static_cast<std::size_t>(index_)].start = Clock::now();
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = log_.spans_[static_cast<std::size_t>(index_)];
      s.end = Clock::now();
      s.closed = true;
      log_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::ptrdiff_t index_ = -1;
  };

  /// Append a finished span directly (used by the nesting self-test).
  std::ptrdiff_t add(const std::string& name, std::ptrdiff_t parent,
                     Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, parent, start, end, true});
    return static_cast<std::ptrdiff_t>(spans_.size()) - 1;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::ptrdiff_t open_ = -1;
};

/// Throws std::runtime_error unless every span is closed, lies inside its
/// parent's interval, and does not overlap an earlier sibling.
inline void check_nesting(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<Clock::time_point> last_child_end(spans.size());
  std::vector<bool> has_child(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!s.closed || s.end < s.start)
      throw std::runtime_error("span '" + s.name + "' is not closed");
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= i) throw std::runtime_error("span '" + s.name + "' precedes its parent");
    const Span& parent = spans[p];
    if (s.start < parent.start || s.end > parent.end)
      throw std::runtime_error("span '" + s.name + "' escapes its parent '" +
                               parent.name + "'");
    if (has_child[p] && s.start < last_child_end[p])
      throw std::runtime_error("span '" + s.name + "' overlaps a sibling");
    has_child[p] = true;
    last_child_end[p] = s.end;
  }
}

/// Coverage of root spans, per root name: seconds covered by direct
/// children and seconds of the roots themselves, summed over the log.
/// Call check_nesting first: siblings are assumed disjoint, so their
/// durations add.
using Coverage = std::map<std::string, std::pair<double, double>>;

inline void add_root_coverage(const SpanLog& log, Coverage& acc) {
  const auto& spans = log.spans();
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.seconds();
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent < 0) {
      acc[spans[i].name].first += covered[i];
      acc[spans[i].name].second += spans[i].seconds();
    }
}

/// Total seconds per span name, summed over every span in the log.
inline void add_totals(const SpanLog& log, std::map<std::string, double>& totals) {
  for (const Span& s : log.spans()) totals[s.name] += s.seconds();
}

}  // namespace perfbench
