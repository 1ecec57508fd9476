//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recorder for the benchmark's traced runs. A span wraps
/// one call into a WARio layer from the benchmark's own code: it has a
/// name, start, end, parent span and op id. Spans stay in memory and are
/// written out once, when the run ends.
///
/// Recording is per thread: a thread records only while its TraceOn flag
/// is set, so a traced run can interleave traced and untraced ops and
/// report the difference as the tracing overhead. With the flag clear a
/// SpanScope costs one thread-local load.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_PERFBENCH_TRACER_H
#define WARIO_PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double now();

struct Span {
  const char *Name = "";
  double Start = 0;
  double End = 0;
  int64_t Parent = -1; ///< Index of the enclosing span, -1 at the root.
  uint64_t Op = 0;     ///< The op (or set-up round) the span belongs to.
};

/// Per-thread recording state.
struct TraceState {
  bool On = false;
  int64_t Parent = -1;
  uint64_t Op = 0;
};
TraceState &traceState();

/// Aggregate of one span name: summed self time and call count.
struct SpanTotals {
  double SelfSeconds = 0;
  double TotalSeconds = 0;
  uint64_t Calls = 0;
};

/// Records a span around its lifetime when the calling thread traces.
class SpanScope {
public:
  explicit SpanScope(const char *Name);
  ~SpanScope();
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int64_t Idx = -1;
  int64_t SavedParent = -1;
};

/// Self time and calls per span name, for each op id that recorded spans.
/// A span's self time is its duration minus the time its child spans
/// cover.
std::map<uint64_t, std::map<std::string, SpanTotals>> spanTotalsByOp();

/// Writes every recorded span as a JSON array to \p Path.
bool writeSpans(const std::string &Path);

} // namespace perfbench

#endif // WARIO_PERFBENCH_TRACER_H
