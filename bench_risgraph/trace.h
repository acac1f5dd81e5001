#ifndef RISGRAPH_BENCH_RISGRAPH_TRACE_H_
#define RISGRAPH_BENCH_RISGRAPH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace risgraph::rgbench {

/// One span (ph 'X') or instant (ph 'i') of the traced run. `id` keys the
/// spans of one update, call or epoch.
struct Span {
  const char* name = "";
  const char* cat = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t id = 0;
  uint32_t tid = 0;
  char ph = 'X';
};

/// Preallocated, single-writer span store. Recording never allocates: once
/// the buffer is full further spans are counted as dropped, so tracing cost
/// stays flat however long the run is.
class SpanBuffer {
 public:
  SpanBuffer(uint32_t tid, size_t capacity) : tid_(tid) {
    spans_.reserve(capacity);
  }

  void Add(const char* name, const char* cat, int64_t start_ns,
           int64_t end_ns, uint64_t id) {
    Push(Span{name, cat, start_ns, end_ns - start_ns, id, tid_, 'X'});
  }
  void Instant(const char* name, const char* cat, int64_t at_ns,
               uint64_t id) {
    Push(Span{name, cat, at_ns, 0, id, tid_, 'i'});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  void Push(const Span& s) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  uint32_t tid_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Writes the buffers as a Chrome trace-event file (open it in
/// chrome://tracing or https://ui.perfetto.dev). Timestamps are microseconds
/// relative to `origin_ns`. Returns false if the file cannot be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanBuffer*>& buffers,
                             int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
                   "\"ts\": %.3f, ",
                   first ? "" : ",\n", s.name, s.cat, s.ph,
                   (s.start_ns - origin_ns) / 1e3);
      if (s.ph == 'X') {
        std::fprintf(f, "\"dur\": %.3f, ", s.dur_ns / 1e3);
      } else {
        std::fputs("\"s\": \"t\", ", f);
      }
      std::fprintf(f, "\"pid\": 1, \"tid\": %u, \"args\": {\"id\": %llu}}",
                   s.tid, static_cast<unsigned long long>(s.id));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace risgraph::rgbench

#endif  // RISGRAPH_BENCH_RISGRAPH_TRACE_H_
