#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"parent\": %d, \"op\": %lld, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name, s.parent, static_cast<long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Tracer::Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::map<std::string, int64_t> SelfByLayer(
    const std::vector<Tracer::Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    const char* name = spans[i].name;
    const char* dot = std::strchr(name, '.');
    std::string layer = dot == nullptr ? std::string(name)
                                       : std::string(name, dot);
    if (layer == "op") layer = "unattributed";
    layers[layer] += self[i];
  }
  return layers;
}

}  // namespace perfbench
