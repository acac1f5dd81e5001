#ifndef RISGRAPH_BENCH_RISGRAPH_REPORT_H_
#define RISGRAPH_BENCH_RISGRAPH_REPORT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace risgraph::rgbench {

/// The metrics of one workload run.
///
/// Every metric is printed as `<workload>.<metric> <value> <unit>`. The last
/// line of output is one JSON object whose `metrics` hold the end-to-end
/// metrics of an untraced run, or the per-layer metrics of a traced run —
/// exactly the names BENCHMARK.json lists. Info metrics are printed only:
/// they apply to some workloads and not others (RPC read latency, WAL time,
/// subscription poll latency, ...), and the JSON carries only metrics every
/// workload reports.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void EndToEnd(const char* name, double value, const char* unit) {
    end_to_end_.push_back({name, value, unit});
  }
  void Layer(const char* name, double value, const char* unit) {
    layer_.push_back({name, value, unit});
  }
  void Info(const char* name, double value, const char* unit) {
    info_.push_back({name, value, unit});
  }

  /// The `<workload>.<metric> <value> <unit>` lines only.
  void PrintLines() const {
    for (const auto* list : {&end_to_end_, &layer_, &info_}) {
      for (const Metric& m : *list) {
        std::printf("%s.%s %s %s\n", workload_.c_str(), m.name.c_str(),
                    Num(m.value).c_str(), m.unit.c_str());
      }
    }
  }

  /// The lines, then the JSON result as the last line.
  void Print(bool trace, bool correct, uint64_t attempted,
             uint64_t failed) const {
    PrintLines();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const std::vector<Metric>& json = trace ? layer_ : end_to_end_;
    for (size_t i = 0; i < json.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", json[i].name.c_str(),
                  Num(json[i].value).c_str(), json[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  // All significant digits; a non-finite value (a ratio over an empty
  // denominator) prints as 0 so the JSON stays valid.
  static std::string Num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
    return buf;
  }

  std::string workload_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<Metric> info_;
};

}  // namespace risgraph::rgbench

#endif  // RISGRAPH_BENCH_RISGRAPH_REPORT_H_
