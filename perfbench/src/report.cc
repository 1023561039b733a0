#include "report.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/str_util.h"

namespace perfbench {

namespace {

/// 1-based nearest rank of `pct` among `n` samples. The epsilon keeps a
/// product like 99.9% x 10000 from rounding up past an exact rank.
size_t Rank(double pct, size_t n) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 0.0)), 1,
                            std::max<size_t>(n, 1));
}

}  // namespace

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[Rank(pct, values.size()) - 1];
}

double TailPercentile(size_t samples) {
  constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  for (double pct : kLadder) {
    // Samples strictly above the nearest-rank position of `pct`.
    if (samples >= Rank(pct, samples) + 10) return pct;
  }
  return 50;
}

Tail TailOf(const std::vector<double>& values) {
  Tail t;
  t.samples = values.size();
  t.pct = TailPercentile(t.samples);
  t.value = Percentile(values, t.pct);
  t.beyond = t.samples - std::min(Rank(t.pct, t.samples), t.samples);
  return t;
}

std::vector<double> Timings::PerInput() const {
  std::vector<double> samples;
  samples.reserve(by_input_.size());
  for (const auto& [input, values] : by_input_) {
    samples.push_back(Percentile(values, pct_));
  }
  return samples;
}

double Timings::Of(int input) const {
  auto it = by_input_.find(input);
  return it == by_input_.end() ? 0 : Percentile(it->second, pct_);
}

double BurstEpoch(const std::vector<double>& submit_return,
                  const std::vector<double>& arrival_offset) {
  double epoch = std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < submit_return.size() && t < arrival_offset.size();
       ++t) {
    epoch = std::min(epoch, submit_return[t] - arrival_offset[t]);
  }
  return epoch;
}

bool OnTime(const cote::ServiceQueryRecord& record, double latency,
            double limit) {
  return record.status.ok() &&
         record.outcome == cote::ServiceOutcome::kServedFull &&
         latency <= limit;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  entries_.push_back(Entry{name, value, unit, note, true});
}

void MetricSet::AddText(const std::string& name, double value,
                        const std::string& unit, const std::string& note) {
  entries_.push_back(Entry{name, value, unit, note, false});
}

void MetricSet::AddTimings(const std::string& p50_name,
                           const std::string& tail_name, const Timings& t,
                           const std::string& unit) {
  const std::vector<double> samples = t.PerInput();
  const Tail tail = TailOf(samples);
  Add(p50_name, Percentile(samples, 50), unit,
      cote::StrFormat("median of %zu input p%gs, %zu samples", samples.size(),
                      t.pct(), t.count()));
  Add(tail_name, tail.value, unit,
      cote::StrFormat("p%g of %zu input p%gs, %zu beyond; %zu samples",
                      tail.pct, tail.samples, t.pct(), tail.beyond,
                      t.count()));
}

std::string MetricSet::Text() const {
  std::string out;
  for (const Entry& e : entries_) {
    out += cote::StrFormat("  %-34s %14.6g %-8s%s%s%s\n", e.name.c_str(),
                           e.value, e.unit.c_str(),
                           e.note.empty() ? "" : "  ", e.note.c_str(),
                           e.in_result ? "" : "  [text only]");
  }
  return out;
}

std::string MetricSet::ResultJson(bool correct, int64_t attempted,
                                  int64_t failed) const {
  std::string out = cote::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  const char* sep = "";
  for (const Entry& e : entries_) {
    if (!e.in_result) continue;
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    out += cote::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           sep, e.name.c_str(), v, e.unit.c_str());
    sep = ", ";
  }
  return out + "}}";
}

double MetricSet::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0;
}

}  // namespace perfbench
