// The traced run's per-layer measurements. After a traced wire run, the
// same request sequence is replayed in-process on one thread through each
// layer's public functions (protocol, lang, core, Broker, Matcher), with a
// span around every call. Spans live in memory and are written out at the
// end, one TSV line each:
//   span_id  parent_id  request_id  name  start_ns  end_ns
// (parent_id 0 = root; request_id = position in the request sequence;
// times are relative to the start of the run.)
#ifndef WIREBENCH_TRACE_H_
#define WIREBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "wire.h"
#include "workload.h"

namespace wirebench {

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t request = 0;
  uint16_t name = 0;
  int64_t start = 0;
  int64_t end = 0;
};

/// In-memory span store. Requests are sampled with a fixed stride so a
/// long run keeps at most about `max_requests` request trees.
class SpanLog {
 public:
  SpanLog(int64_t origin, size_t requests, size_t max_requests);
  bool Sampled(uint32_t request) const { return request % stride_ == 0; }
  /// Records a span if its request is sampled; returns its id (0 if not).
  uint32_t Add(const char* name, uint32_t parent, uint32_t request,
               int64_t start, int64_t end);
  /// Sets the end of a recorded span (no-op for id 0).
  void End(uint32_t id, int64_t end) {
    if (id != 0) spans_[id - 1].end = end - origin_;
  }
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }
  size_t stride() const { return stride_; }

 private:
  uint16_t NameId(const char* name);
  int64_t origin_;
  size_t stride_;
  std::vector<const char*> names_;
  std::vector<Span> spans_;
};

/// Per-layer metrics, in print order: (name, unit, value).
using LayerMetrics = std::vector<std::tuple<std::string, std::string, double>>;

/// Replays `run.ops` and computes every per-layer metric; adds spans for
/// the wire requests and the replayed calls to `spans`.
LayerMetrics MeasureLayers(const Workload& w, const RunResult& run,
                           SpanLog* spans);

}  // namespace wirebench

#endif  // WIREBENCH_TRACE_H_
