//===----------------------------------------------------------------------===//
///
/// \file
/// The WARio benchmark:
///
///   wario_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                   [--workdir <dir>]
///
/// runs one workload (compile-matrix, intermittent-emulate,
/// crash-campaign, serve-mixed), checks every output against a reference
/// that does not come from the compiler, and prints a human-readable
/// report followed by one JSON line: every end-to-end metric with
/// --trace 0, every per-layer metric (from in-memory spans around each
/// call into a layer) with --trace 1. perfbench/run.py builds and runs it.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "emu/ThreadedEngine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace perfbench;

namespace {

struct LayerMetric {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A ".ms" metric is a
/// layer's self time in a nominal run (see runSpans); serve.* times are
/// means per traced request.
const LayerMetric LayerMetrics[] = {
    {"frontend.ms", "ms"},
    {"frontend.calls", "count"},
    {"driver.front_half.ms", "ms"},
    {"transforms.allocas_promoted", "count"},
    {"transforms.inlined_prepass", "count"},
    {"driver.middle_end.ms", "ms"},
    {"transforms.wars_found", "count"},
    {"transforms.wars_already_cut", "count"},
    {"transforms.ckpts_inserted", "count"},
    {"transforms.stores_marked", "count"},
    {"transforms.loops_clustered", "count"},
    {"transforms.stores_postponed", "count"},
    {"transforms.calls_expanded", "count"},
    {"transforms.regions_bounded", "count"},
    {"ir.insts_after_middle_end", "count"},
    {"analysis.alias.ms", "ms"},
    {"analysis.domtree.ms", "ms"},
    {"analysis.loopinfo.ms", "ms"},
    {"analysis.mdg.ms", "ms"},
    {"backend.ms", "ms"},
    {"backend.vregs", "count"},
    {"backend.spilled", "count"},
    {"backend.spill_wars", "count"},
    {"backend.spill_ckpts", "count"},
    {"backend.code_bytes", "bytes"},
    {"emu.prepare.ms", "ms"},
    {"emu.run.ms", "ms"},
    {"emu.insts", "count"},
    {"emu.minsts_per_s", "Minst/s"},
    {"emu.dispatches", "count"},
    {"emu.fused_insn_share", "ratio"},
    {"emu.threaded_insn_share", "ratio"},
    {"emu.power_failures", "count"},
    {"verify.campaign.ms", "ms"},
    {"verify.points_tested", "count"},
    {"verify.emulations_run", "count"},
    {"verify.physical_runs", "count"},
    {"verify.resumed_share", "ratio"},
    {"verify.spliced_share", "ratio"},
    {"verify.snapshot_bytes", "bytes"},
    {"serve.rtt.ms", "ms"},
    {"serve.compute.ms", "ms"},
    {"serve.overhead.ms", "ms"},
    {"serve.cache.hit_share.front", "ratio"},
    {"serve.cache.hit_share.mid", "ratio"},
    {"serve.cache.hit_share.compile", "ratio"},
    {"serve.cache.hit_share.run", "ratio"},
    {"serve.cache.evictions", "count"},
    {"serve.cache.bytes_used", "bytes"},
    {"trace.overhead_ms", "ms"},
};

/// Spans that are layers with a ".ms" metric (the rest are the
/// benchmark's own: op, setup, check.*, and serve.rtt, whose metric the
/// workload reports per request).
const char *const LayerSpans[] = {
    "frontend",       "driver.front_half", "driver.middle_end",
    "analysis.alias", "analysis.domtree",  "analysis.loopinfo",
    "analysis.mdg",   "backend",           "emu.prepare",
    "emu.run",        "verify.campaign"};

struct RunSpan {
  double SelfMs = 0;
  double Calls = 0;
};

/// The traced spans reduced to a nominal run, so that a figure does not
/// depend on how many passes fit in the run: the fixed work (spans of op
/// ids that are not timed ops: the traced set-up round, the analysis
/// builds) once, plus R.NominalPasses times, for each cell, the median
/// over its traced ops of each span's self time and calls.
std::map<std::string, RunSpan> runSpans(const Report &R) {
  std::map<std::string, RunSpan> Out;
  std::map<size_t, std::vector<uint64_t>> OpsOfCell;
  for (const auto &[Op, Cell] : R.TracedOpCell)
    OpsOfCell[Cell].push_back(Op);
  auto ByOp = spanTotalsByOp();
  for (const auto &[Op, Names] : ByOp) {
    if (R.TracedOpCell.count(Op))
      continue;
    for (const auto &[Name, T] : Names) {
      Out[Name].SelfMs += T.SelfSeconds * 1e3;
      Out[Name].Calls += double(T.Calls);
    }
  }
  for (const auto &[Cell, Ops] : OpsOfCell) {
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        Samples;
    for (uint64_t Op : Ops)
      for (const auto &[Name, T] : ByOp[Op])
        Samples[Name];
    for (auto &[Name, V] : Samples)
      for (uint64_t Op : Ops) {
        auto It = ByOp[Op].find(Name);
        V.first.push_back(It == ByOp[Op].end() ? 0 : It->second.SelfSeconds);
        V.second.push_back(It == ByOp[Op].end() ? 0 : double(It->second.Calls));
      }
    for (auto &[Name, V] : Samples) {
      Out[Name].SelfMs += R.NominalPasses * median(V.first) * 1e3;
      Out[Name].Calls += R.NominalPasses * median(V.second);
    }
  }
  return Out;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "wario_perfbench: %s\nusage: wario_perfbench --workload "
               "<compile-matrix|intermittent-emulate|crash-campaign|"
               "serve-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n",
               Msg);
  return 2;
}

/// Pins every WARIO_* variable that changes what is measured, before the
/// libraries first read them: one worker for the harness pools (the
/// campaign and server widths are set explicitly), the default engine,
/// snapshots on, and no bench-harness switches.
void pinEnvironment() {
  setenv("WARIO_JOBS", "1", 1);
  for (const char *V : {"WARIO_ENGINE", "WARIO_SNAPSHOTS",
                        "WARIO_CACHE_BYTES", "WARIO_STRATEGIES"})
    unsetenv(V);
}

/// FNV-1a of this executable, so determinism digests from another build
/// are never compared.
std::string binaryId() {
  std::ifstream F("/proc/self/exe", std::ios::binary);
  uint64_t H = 1469598103934665603ull;
  char Buf[1 << 16];
  while (F.read(Buf, sizeof(Buf)) || F.gcount() > 0)
    for (std::streamsize I = 0; I != F.gcount(); ++I)
      H = (H ^ uint8_t(Buf[I])) * 1099511628211ull;
  char Out[20];
  std::snprintf(Out, sizeof(Out), "%016llx", (unsigned long long)H);
  return Out;
}

/// Compares this run's deterministic counters with the digest an earlier
/// run of the same binary, workload and seed left in \p WorkDir, or
/// leaves one. False on a difference.
bool checkDigest(const Args &A, const std::string &Digest, std::string *Why) {
  std::string Path = A.WorkDir + "/digest-" + A.Workload + "-" +
                     std::to_string(A.Seed) + "-" + binaryId() + ".txt";
  std::ifstream In(Path);
  if (In) {
    std::stringstream SS;
    SS << In.rdbuf();
    if (SS.str() != Digest) {
      *Why = "counters differ from an earlier run of this seed (" + Path + ")";
      return false;
    }
    return true;
  }
  std::ofstream(Path) << Digest;
  return true;
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
      if (*End)
        return usage("bad --seed");
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
      if (*End || !(A.Seconds > 0) || A.Seconds > 120)
        return usage("bad --seconds");
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("bad --trace");
      A.Trace = V[0] == '1';
    } else if (Flag == "--workdir") {
      A.WorkDir = V;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload)
    return usage("missing --workload");
  void (*Run)(const Args &, Report &) = nullptr;
  if (A.Workload == "compile-matrix")
    Run = runCompileMatrix;
  else if (A.Workload == "intermittent-emulate")
    Run = runIntermittentEmulate;
  else if (A.Workload == "crash-campaign")
    Run = runCrashCampaign;
  else if (A.Workload == "serve-mixed")
    Run = runServeMixed;
  else
    return usage(("unknown workload " + A.Workload).c_str());

  const std::string BuildType = WARIO_PERFBENCH_BUILD_TYPE;
  if (BuildType != "Release") {
    std::fprintf(stderr,
                 "wario_perfbench: refusing to measure a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 BuildType.c_str());
    return 3;
  }
  pinEnvironment();
  const char *Engine =
      wario::engineName(wario::resolveEngine(wario::EngineKind::Auto));
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d engine=%s "
              "build_type=%s\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace), Engine, BuildType.c_str());

  Report R;
  beginOp(0, A.Trace);
  Run(A, R);
  beginOp(0, false);

  // Determinism self-check across runs: counters and code quality must
  // repeat exactly for a seed.
  std::string Digest = std::string("engine=") + Engine + "\n";
  for (const auto &[K, V] : R.Work)
    Digest += K + "=" + jsonNumber(V) + "\n";
  Digest += "quality=" + R.QualityFingerprint + "\n";
  std::string Why;
  if (!checkDigest(A, Digest, &Why))
    R.fail(Why);

  std::printf("# attempted=%llu failed=%llu fail_share=%.6f samples=%llu\n",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed,
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0,
              (unsigned long long)R.Attempted);
  for (const std::string &F : R.Failures)
    std::printf("# FAILED: %s\n", F.c_str());
  std::printf("# timed phase: %.3f process CPU seconds per wall second\n",
              R.CpuPerWall);

  std::string Metrics;
  auto Emit = [&](const std::string &Name, double Value, const char *Unit) {
    std::printf("%-34s %18.6f %s\n", Name.c_str(), Value, Unit);
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + Name +
               "\": {\"value\": " + jsonNumber(Value) + ", \"unit\": \"" +
               Unit + "\"}";
  };
  if (!A.Trace) {
    for (const Metric &M : R.EndToEnd)
      Emit(M.Name, M.Value, M.Unit.c_str());
  } else {
    std::map<std::string, RunSpan> Spans = runSpans(R);
    std::map<std::string, double> Values = R.Layer;
    for (const auto &[K, V] : R.Work)
      Values[K] = V;
    for (const char *S : LayerSpans)
      Values[std::string(S) + ".ms"] =
          Spans.count(S) ? Spans.at(S).SelfMs : 0;
    Values["frontend.calls"] =
        Spans.count("frontend") ? Spans.at("frontend").Calls : 0;
    Values["trace.overhead_ms"] = R.TraceOverheadMs;
    std::printf("# self time by span in a nominal run of one set-up round "
                "and %g passes (ms, calls):\n",
                R.NominalPasses);
    std::string Largest;
    double LargestMs = -1;
    for (const auto &[Name, T] : Spans) {
      std::printf("#   %-22s %12.3f %10.1f\n", Name.c_str(), T.SelfMs,
                  T.Calls);
      for (const char *S : LayerSpans)
        if (Name == S && T.SelfMs > LargestMs) {
          LargestMs = T.SelfMs;
          Largest = Name;
        }
    }
    std::printf("# largest layer self time: %s\n", Largest.c_str());
    std::printf("# tracing overhead: %.4f ms per op (median over cells of "
                "traced minus untraced median latency)\n",
                R.TraceOverheadMs);
    std::string SpanFile = A.WorkDir + "/spans-" + A.Workload + "-" +
                           std::to_string(A.Seed) + ".json";
    if (writeSpans(SpanFile))
      std::printf("# spans written to %s\n", SpanFile.c_str());
    for (const LayerMetric &M : LayerMetrics)
      Emit(M.Name, Values[M.Name], M.Unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Failed == 0 ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(R.Attempted, 1),
              (unsigned long long)R.Failed, Metrics.c_str());
  return 0;
}
