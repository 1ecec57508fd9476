#include "Tracer.h"

#include <chrono>
#include <cstdio>
#include <mutex>

using namespace perfbench;

namespace {

std::mutex SpansMutex;
std::vector<Span> Spans; // Guarded by SpansMutex.

} // namespace

double perfbench::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceState &perfbench::traceState() {
  thread_local TraceState S;
  return S;
}

SpanScope::SpanScope(const char *Name) {
  TraceState &S = traceState();
  if (!S.On)
    return;
  Span Sp;
  Sp.Name = Name;
  Sp.Parent = S.Parent;
  Sp.Op = S.Op;
  {
    std::lock_guard<std::mutex> Lock(SpansMutex);
    Idx = int64_t(Spans.size());
    Sp.Start = now();
    Spans.push_back(Sp);
  }
  SavedParent = S.Parent;
  S.Parent = Idx;
}

SpanScope::~SpanScope() {
  if (Idx < 0)
    return;
  double T = now();
  traceState().Parent = SavedParent;
  std::lock_guard<std::mutex> Lock(SpansMutex);
  Spans[size_t(Idx)].End = T;
}

std::map<uint64_t, std::map<std::string, SpanTotals>>
perfbench::spanTotalsByOp() {
  std::lock_guard<std::mutex> Lock(SpansMutex);
  // Children run nested and sequentially on their parent's thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> ChildSeconds(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSeconds[size_t(S.Parent)] += S.End - S.Start;
  std::map<uint64_t, std::map<std::string, SpanTotals>> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    SpanTotals &T = Out[Spans[I].Op][Spans[I].Name];
    double Dur = Spans[I].End - Spans[I].Start;
    T.TotalSeconds += Dur;
    T.SelfSeconds += Dur - ChildSeconds[I];
    ++T.Calls;
  }
  return Out;
}

bool perfbench::writeSpans(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(SpansMutex);
  double Base = Spans.empty() ? 0 : Spans.front().Start;
  std::fputs("[\n", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"op\":%llu}%s\n",
                 I, S.Name, (S.Start - Base) * 1e6, (S.End - Base) * 1e6,
                 (long long)S.Parent, (unsigned long long)S.Op,
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}
