//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark's four workloads: input programs and
/// configurations, the traced compile path through the public pipeline
/// stages, the interpreter reference every output is checked against,
/// the code-quality counts, and the report every workload fills.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_PERFBENCH_COMMON_H
#define WARIO_PERFBENCH_COMMON_H

#include "ProgramGen.h"
#include "Tracer.h"

#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One input program: a paper benchmark or a generated one.
struct Program {
  std::string Name;
  const wario::Workload *Paper = nullptr; ///< Null for generated programs.
  std::string Source;                     ///< Generated programs only.
};

/// The six programs of the paper's evaluation.
std::vector<Program> paperPrograms();

/// One generated program of size class \p C.
Program generatedProgram(SizeClass C, uint64_t Seed, const std::string &Name);

/// A named compile configuration.
struct Config {
  std::string Name;
  wario::PipelineOptions PO;
  bool Negative = false; ///< A deliberately weakened build.
  bool plain() const { return PO.Env == wario::Environment::PlainC; }
};

Config envConfig(wario::Environment E);
/// WarioComplete under a rollback strategy ("wario-diff", "wario-spec").
Config strategyConfig(wario::CheckpointStrategy S);

//===----------------------------------------------------------------------===//
// Traced calls into the layers
//===----------------------------------------------------------------------===//

/// Front end (span "frontend"): buildWorkloadIR or compileC. Null and
/// \p Error on diagnostics.
std::unique_ptr<wario::Module> runFrontend(const Program &P,
                                           std::string *Error);

/// Everything one compile produced.
struct Compiled {
  wario::MModule MM;
  wario::PipelineStats Stats;
  uint64_t IrInstsAfterMiddleEnd = 0;
  std::string Error; ///< Empty on success.
  bool ok() const { return Error.empty(); }
};

/// Front end, front half, middle end, back end, each in its own span.
Compiled compileProgram(const Program &P, const wario::PipelineOptions &PO);

/// The deterministic fingerprint of a compile: every stats counter, the
/// machine code size and a hash of every field of the linked machine
/// module.
std::string compileFingerprint(const Compiled &C);

/// Adds one compile's middle-end and back-end work counters to \p Work
/// (the transforms.*, ir.* and backend.* per-layer metrics).
void addCompileCounters(std::map<std::string, double> &Work,
                        const Compiled &C);

/// Emulator options a run of \p C uses: the server's (WAR accesses are
/// not fatal in plain C, which carries no checkpoints), and not fatal in
/// a negative control either.
wario::EmulatorOptions runOptions(const Config &C, wario::EmulatorOptions EO);

//===----------------------------------------------------------------------===//
// Reference and checks
//===----------------------------------------------------------------------===//

/// Result of the reference interpreter on the un-transformed front-end
/// IR of a program: independent of every pass under test.
struct Reference {
  bool Ok = false;
  int32_t Return = 0;
  std::vector<int32_t> Output;
  std::string Error;
};
Reference interpretReference(const Program &P);

/// True when \p R computed what the reference did. Under continuous power
/// the output must be equal; under intermittent power re-execution may
/// replay output writes, so the reference output must be a subsequence.
bool matchesReference(const wario::EmulatorResult &R, const Reference &Ref,
                      bool Continuous, std::string *Why);

/// The deterministic fingerprint of an emulation result.
std::string emulationFingerprint(const wario::EmulatorResult &R);

//===----------------------------------------------------------------------===//
// Code quality (deterministic, over the six paper programs)
//===----------------------------------------------------------------------===//

struct Quality {
  double CyclesVsPlainC = 0; ///< Geomean over instrumented cells.
  uint64_t Ckpts = 0;        ///< Executed checkpoints, continuous power.
  uint64_t CodeBytes = 0;    ///< Text bytes, every cell incl. plain C.
  uint64_t MaxRegion = 0;    ///< Worst idempotent region, in cycles.
  double ReexecShare = 0;    ///< Boot+restore+re-execution cycles share.
  std::string fingerprint() const;
};

/// What every set-up round must reproduce: the quality counts and the
/// compile work counters.
std::string setupFingerprint(const Quality &Q,
                             const std::map<std::string, double> &Work);

/// One compiled (program, configuration) cell.
struct QualityCell {
  std::string Program;
  const Config *Cfg = nullptr;
  const wario::MModule *MM = nullptr;
};

/// Sums the code-quality counts over checked cells.
class QualityAccumulator {
public:
  /// Adds one cell's continuous run and, for instrumented cells, its run
  /// at the fixed on-period QualityPeriod.
  void add(const QualityCell &C, const wario::EmulatorResult &Continuous,
           const wario::EmulatorResult *Intermittent);
  /// False (with \p Why) when an instrumented program has no plain-C cell.
  bool finish(Quality &Q, std::string *Why) const;

private:
  Quality Sum;
  std::map<std::string, uint64_t> PlainCycles;
  std::vector<std::pair<std::string, uint64_t>> Instrumented;
  uint64_t ReexecCycles = 0, IntermittentCycles = 0;
};

/// Emulates \p C under continuous power and, unless it is plain C, at the
/// fixed on-period QualityPeriod, and checks both runs against \p Ref.
/// Adds the cell to \p Acc when given. The emulations run in a
/// "check.emulate" span: they are the checker's work, not the workload's.
inline constexpr uint64_t QualityPeriod = 100'000;
bool checkCell(const QualityCell &C, const Reference &Ref,
               QualityAccumulator *Acc, std::string *Why);

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Throughput and latency percentiles of a timed phase.
struct OpLog {
  uint64_t Attempted = 0;
  double OpsPerSecond = 0;
  double P50Ms = 0;
  double P95Ms = 0;
};

/// What a workload hands back to main.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< First few failure reasons.
  std::vector<Metric> EndToEnd;
  /// Per-layer work counters: pure functions of the inputs, so they must
  /// repeat exactly for a seed (checked in-run and across runs).
  std::map<std::string, double> Work;
  /// Other per-layer values (span times, activity counts, shares of
  /// timing-dependent traffic).
  std::map<std::string, double> Layer;
  std::string QualityFingerprint; ///< The code-quality counts.
  /// Traced runs: each traced timed op and the cell (a slot of the pass)
  /// it ran. Their spans are reduced to passes at each cell's median; the
  /// spans of every other op id (the traced set-up round, the standalone
  /// analysis builds) are fixed work and count once.
  std::map<uint64_t, size_t> TracedOpCell;
  /// Traced runs: the passes a run of --seconds makes at the workload's
  /// nominal pass time. The per-layer times count the fixed work once and
  /// this many passes at each cell's median, so they do not grow or
  /// shrink with the number of passes that fit in the run.
  double NominalPasses = 1;
  /// Traced runs: the tracing overhead (see pairedOverheadMs).
  double TraceOverheadMs = 0;
  /// Process CPU seconds per wall second over the timed phase. On a
  /// single-threaded workload a value well below 1 means the process
  /// waited for a CPU; a slow run that reads about 1 ran on slower cores.
  double CpuPerWall = 0;

  /// Counts \p Ops failed ops, keeping the first few reasons.
  void fail(const std::string &Why, uint64_t Ops = 1);
};

double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
double peakRssMb();
/// CPU time of the whole process, in seconds.
double processCpuSeconds();

/// Fills setup_s, ops_per_s, op_ms_p50, op_ms_p95, peak_rss_mb and the
/// code-quality metrics, in the order BENCHMARK.json lists them.
void addEndToEnd(Report &R, double SetupSeconds, const OpLog &L,
                 const Quality &Q);

/// Runs \p Setup for the set-up rounds and returns their median wall
/// time. Each round must return the same fingerprint; a mismatch is
/// reported as a failure. In a traced run only the first round is traced,
/// so set-up counts once in the span totals.
double timedSetups(Report &R,
                   const std::function<std::string()> &Setup);

/// The timed phase of the pass-based workloads. Runs whole passes, each
/// a fresh seeded permutation of the \p N cells, until a pass ends at or
/// after A.Seconds (and at least MinTracedPasses in a traced run), so
/// every run measures the same mix. Each op runs \p Op(cell) in an "op"
/// span, then \p Check(cell) untimed. On a shared machine slow periods
/// come and go within a run, so the estimates rest on each cell's median
/// latency over the passes: the latency percentiles are taken over them,
/// and ops per second is N over their sum.
OpLog runPasses(size_t N, const Args &A, Report &R,
                const std::function<void(size_t)> &Op,
                const std::function<void(size_t)> &Check);

/// Marks the calling thread as inside op \p Op, tracing it when \p Traced.
void beginOp(uint64_t Op, bool Traced);

/// Whether the op on cell \p Cell in pass \p Pass is traced: in a traced
/// run every other pass of each cell, so each cell has traced and
/// untraced samples to pair (a traced run makes at least MinTracedPasses
/// passes).
inline bool tracedOp(const Args &A, uint64_t Pass, size_t Cell) {
  return A.Trace && (Pass + Cell) % 2 == 0;
}
inline constexpr uint64_t MinTracedPasses = 2;

/// Report::NominalPasses for a workload whose pass takes about
/// \p PassSeconds on the reference machine.
inline double nominalPasses(const Args &A, double PassSeconds) {
  return std::max<double>(MinTracedPasses,
                          std::round(A.Seconds / PassSeconds));
}

/// The tracing overhead of a traced run: for each cell with both kinds of
/// samples, its median traced latency minus its median untraced latency;
/// the median of those differences. Pairing each cell with itself keeps
/// the difference free of the spread between cells.
double pairedOverheadMs(const std::vector<std::vector<double>> &TracedMs,
                        const std::vector<std::vector<double>> &UntracedMs);

/// The in-run determinism self-check: every op on a cell must reproduce
/// the fingerprint of the cell's first op.
class FirstRuns {
public:
  explicit FirstRuns(size_t Cells) : Fps(Cells) {}
  enum Verdict { First, Same, Differs };
  Verdict check(size_t Cell, std::string Fingerprint);

private:
  std::vector<std::string> Fps;
};

/// Set-up rounds per run (setup_s is their median): at least
/// MinSetupRounds, and more while they total under MinSetupSeconds, so a
/// cheap set-up's median still rests on enough time to be steady.
inline constexpr unsigned MinSetupRounds = 3, MaxSetupRounds = 15;
inline constexpr double MinSetupSeconds = 1.5;

/// The four workloads.
void runCompileMatrix(const Args &A, Report &R);
void runIntermittentEmulate(const Args &A, Report &R);
void runCrashCampaign(const Args &A, Report &R);
void runServeMixed(const Args &A, Report &R);

} // namespace perfbench

#endif // WARIO_PERFBENCH_COMMON_H
