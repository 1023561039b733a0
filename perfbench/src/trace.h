#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock every benchmark timing uses.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder of the traced run. Each span is one call from
/// the benchmark into a layer (or a stage time the layer reported for
/// such a call): a name "<layer>.<what>", its interval, its parent span
/// and the op it belongs to. Nothing inside the library is instrumented.
/// Spans are written out only when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string "<layer>.<what>"
    int parent;        ///< index of the enclosing span, -1 for a root
    int64_t op;
    int64_t start_ns;
    int64_t end_ns;
  };

  Tracer() { spans_.reserve(1 << 16); }

  /// Records a measured interval; returns the span's index.
  int Add(const char* name, int parent, int64_t op, int64_t start_ns,
          int64_t end_ns) {
    spans_.push_back(Span{name, parent, op, start_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the durations of its
/// direct children.
std::vector<int64_t> SelfTimes(const std::vector<Tracer::Span>& spans);

/// Self time summed by layer (the span name up to its first '.'). Root
/// spans named "op" count as layer "unattributed": what is left of an op
/// once every layer call inside it is taken out.
std::map<std::string, int64_t> SelfByLayer(
    const std::vector<Tracer::Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
