#include <algorithm>

#include "bench.hpp"

namespace perfbench {

int Tracer::open(const std::string& name, int cell) {
  const double now = since_origin(Clock::now());
  spans_.push_back({name, now, now, open_.empty() ? -1 : open_.back(), cell});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = since_origin(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int cell) {
  spans_.push_back({name, since_origin(start), since_origin(end),
                    open_.empty() ? -1 : open_.back(), cell});
}

std::map<std::string, double> Tracer::total_seconds(std::size_t first) const {
  std::map<std::string, double> totals;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    totals[spans_[i].name] += spans_[i].end_s - spans_[i].start_s;
  }
  return totals;
}

std::map<std::string, double> Tracer::self_seconds(std::size_t first) const {
  // Child intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[spans_[i].parent].push_back({spans_[i].start_s,
                                            spans_[i].end_s});
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double covered = 0.0;
    auto it = children.find(static_cast<int>(i));
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& parts = it->second;
      std::sort(parts.begin(), parts.end());
      double reach = span.start_s;
      for (const auto& [start, end] : parts) {
        const double lo = std::max(start, reach);
        const double hi = std::min(end, span.end_s);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, hi);
      }
    }
    self[span.name] += (span.end_s - span.start_s) - covered;
  }
  return self;
}

}  // namespace perfbench
