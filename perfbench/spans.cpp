#include "spans.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           const char* layer)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = static_cast<std::uint32_t>(recorder_->spans_.size());
  span.parent = recorder_->open_.empty() ? kNoParent : recorder_->open_.back();
  id_ = span.id;
  recorder_->spans_.push_back(std::move(span));
  recorder_->open_.push_back(id_);
  // Read the clock last so the bookkeeping above is outside the span.
  recorder_->spans_[id_].start_s = recorder_->now_s();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[id_].end_s = recorder_->now_s();
  recorder_->open_.pop_back();
}

void SpanRecorder::Scope::count(const char* name, std::uint64_t value) {
  if (recorder_ == nullptr) return;
  recorder_->spans_[id_].counts.emplace_back(name, value);
}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_s();
  }
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      self[s.parent] -= s.duration_s();
    }
  }
  return self;
}

std::vector<std::string> check_spans(const std::vector<Span>& spans) {
  std::vector<std::string> errors;
  const auto fail = [&](const Span& s, const std::string& what) {
    errors.push_back("span " + std::to_string(s.id) + " (" + s.name +
                     "): " + what);
  };
  std::vector<double> last_child_end(spans.size(), -1.0);
  std::vector<double> root_total(spans.size(), 0.0);
  std::vector<std::uint32_t> root_of(spans.size(), kNoParent);
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.id != i) fail(s, "id does not match its position");
    if (s.end_s < s.start_s) fail(s, "ends before it starts");
    if (self[i] < 0.0) fail(s, "negative self time");
    if (s.parent == kNoParent) {
      root_of[i] = static_cast<std::uint32_t>(i);
    } else if (s.parent >= i) {
      fail(s, "parent id does not name an earlier span");
      continue;
    } else {
      const Span& p = spans[s.parent];
      if (s.start_s < p.start_s || s.end_s > p.end_s) {
        fail(s, "lies outside its parent " + p.name);
      }
      if (s.start_s < last_child_end[s.parent]) {
        fail(s, "overlaps an earlier sibling");
      }
      last_child_end[s.parent] = s.end_s;
      root_of[i] = root_of[s.parent];
    }
    root_total[root_of[i]] += self[i];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent) continue;
    const double duration = spans[i].duration_s();
    if (std::fabs(root_total[i] - duration) > 1e-9 * (1.0 + duration)) {
      fail(spans[i], "self times of its subtree do not add up to it");
    }
  }
  return errors;
}

void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"snnmap perfbench\"}}";
  out << std::fixed << std::setprecision(3);
  for (const Span& s : spans) {
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << s.duration_s() * 1e6 << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":";
    if (s.parent == kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    for (const auto& [name, value] : s.counts) {
      out << ",\"" << name << "\":" << value;
    }
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
