#include "Common.h"

#include "frontend/Frontend.h"
#include "ir/Interp.h"
#include "serve/Protocol.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sys/resource.h>
#include <time.h>

using namespace perfbench;
using namespace wario;

std::vector<Program> perfbench::paperPrograms() {
  std::vector<Program> Out;
  for (const Workload &W : allWorkloads())
    Out.push_back(Program{W.Name, &W, {}});
  return Out;
}

Program perfbench::generatedProgram(SizeClass C, uint64_t Seed,
                                    const std::string &Name) {
  return Program{Name, nullptr, generateProgram(shapeFor(C), Seed)};
}

Config perfbench::envConfig(Environment E) {
  Config C;
  C.Name = environmentName(E);
  C.PO.Env = E;
  return C;
}

Config perfbench::strategyConfig(CheckpointStrategy S) {
  Config C;
  C.Name = S == CheckpointStrategy::Differential ? "wario-diff" : "wario-spec";
  C.PO.Strat = S;
  return C;
}

std::unique_ptr<Module> perfbench::runFrontend(const Program &P,
                                               std::string *Error) {
  SpanScope S("frontend");
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = P.Paper ? buildWorkloadIR(*P.Paper, Diags)
                                      : compileC(P.Source, P.Name, Diags);
  if (!M || Diags.hasErrors()) {
    if (Error)
      *Error = P.Name + ": front end: " + Diags.formatAll();
    return nullptr;
  }
  return M;
}

Compiled perfbench::compileProgram(const Program &P,
                                   const PipelineOptions &PO) {
  Compiled C;
  std::unique_ptr<Module> M = runFrontend(P, &C.Error);
  if (!M)
    return C;
  {
    SpanScope S("driver.front_half");
    runFrontHalf(*M, C.Stats);
  }
  {
    SpanScope S("driver.middle_end");
    runMiddleEnd(*M, PO, C.Stats);
  }
  for (const Function *F : M->functions())
    C.IrInstsAfterMiddleEnd += F->countInstructions();
  SpanScope S("backend");
  C.MM = runBackendStage(*M, PO, C.Stats);
  return C;
}

namespace {

/// FNV-1a over the linked machine module's contents (printMModule cannot
/// be used: it expects the unlinked global references).
uint64_t machineHash(const MModule &MM) {
  std::vector<int64_t> W;
  auto Str = [&](const std::string &S) {
    W.push_back(int64_t(S.size()));
    for (char Ch : S)
      W.push_back(Ch);
  };
  Str(MM.Name);
  W.push_back(MM.DataEnd);
  W.push_back(int64_t(MM.Strat));
  W.push_back(MM.DiffFullRollback);
  for (uint8_t B : MM.InitImage)
    W.push_back(B);
  for (const MFunction &F : MM.Functions) {
    Str(F.Name);
    W.insert(W.end(), {F.NumVRegs, F.FrameSize, F.SavedRegMask});
    for (const FrameSlot &S : F.Slots)
      W.insert(W.end(), {int64_t(S.SlotKind), S.SizeBytes, S.Offset});
    for (const MBasicBlock &BB : F.Blocks) {
      Str(BB.Name);
      for (const MInst &I : BB.Insts) {
        W.insert(W.end(),
                 {int64_t(I.Op), I.Dst, I.Src[0], I.Src[1], I.Src[2], I.Imm,
                  I.Size, I.Signed, int64_t(I.Pred), I.CalleeIdx,
                  I.Target[0], I.Target[1], int64_t(I.Cause), I.RegList,
                  I.Slot, I.Logged, int64_t(I.CallArgs.size())});
        W.insert(W.end(), I.CallArgs.begin(), I.CallArgs.end());
      }
    }
  }
  return serve::fnv1a(reinterpret_cast<const uint8_t *>(W.data()),
                      W.size() * sizeof(int64_t));
}

} // namespace

std::string perfbench::compileFingerprint(const Compiled &C) {
  const PipelineStats &S = C.Stats;
  const uint64_t H = machineHash(C.MM);
  std::string Out;
  for (uint64_t V :
       {uint64_t(S.InlinedPrepass), uint64_t(S.RegionsBounded),
        uint64_t(S.AllocasPromoted), uint64_t(S.LoopClusterer.LoopsTransformed),
        uint64_t(S.LoopClusterer.StoresPostponed),
        uint64_t(S.Expander.CallsInlined), uint64_t(S.StoresSunk),
        uint64_t(S.MiddleEnd.WarsFound), uint64_t(S.MiddleEnd.WarsAlreadyCut),
        uint64_t(S.MiddleEnd.Inserted), uint64_t(S.MiddleEnd.StoresMarked),
        uint64_t(S.Backend.VRegs), uint64_t(S.Backend.Spilled),
        uint64_t(S.Backend.SpillWars), uint64_t(S.Backend.SpillCheckpoints),
        C.IrInstsAfterMiddleEnd, uint64_t(C.MM.textSizeBytes()), H})
    Out += std::to_string(V) + ",";
  return Out;
}

void perfbench::addCompileCounters(std::map<std::string, double> &Work,
                                   const Compiled &C) {
  const PipelineStats &S = C.Stats;
  Work["transforms.allocas_promoted"] += S.AllocasPromoted;
  Work["transforms.inlined_prepass"] += S.InlinedPrepass;
  Work["transforms.wars_found"] += S.MiddleEnd.WarsFound;
  Work["transforms.wars_already_cut"] += S.MiddleEnd.WarsAlreadyCut;
  Work["transforms.ckpts_inserted"] += S.MiddleEnd.Inserted;
  Work["transforms.stores_marked"] += S.MiddleEnd.StoresMarked;
  Work["transforms.loops_clustered"] += S.LoopClusterer.LoopsTransformed;
  Work["transforms.stores_postponed"] += S.LoopClusterer.StoresPostponed;
  Work["transforms.calls_expanded"] += S.Expander.CallsInlined;
  Work["transforms.regions_bounded"] += S.RegionsBounded;
  Work["ir.insts_after_middle_end"] += double(C.IrInstsAfterMiddleEnd);
  Work["backend.vregs"] += S.Backend.VRegs;
  Work["backend.spilled"] += S.Backend.Spilled;
  Work["backend.spill_wars"] += S.Backend.SpillWars;
  Work["backend.spill_ckpts"] += S.Backend.SpillCheckpoints;
  Work["backend.code_bytes"] += C.MM.textSizeBytes();
}

EmulatorOptions perfbench::runOptions(const Config &C, EmulatorOptions EO) {
  EO = serve::effectiveOptions(C.PO, EO);
  if (C.Negative)
    EO.WarIsFatal = false;
  return EO;
}

Reference perfbench::interpretReference(const Program &P) {
  Reference R;
  std::unique_ptr<Module> M = runFrontend(P, &R.Error);
  if (!M)
    return R;
  SpanScope S("check.interp");
  InterpResult I = interpretModule(*M);
  R.Ok = I.Ok;
  R.Return = I.ReturnValue;
  R.Output = std::move(I.Output);
  if (!I.Ok)
    R.Error = P.Name + ": interpreter: " + I.Error;
  return R;
}

bool perfbench::matchesReference(const EmulatorResult &R, const Reference &Ref,
                                 bool Continuous, std::string *Why) {
  auto Fail = [&](const std::string &M) {
    if (Why)
      *Why = M;
    return false;
  };
  if (!R.Ok)
    return Fail("emulation failed: " + R.Error);
  if (R.ReturnValue != Ref.Return)
    return Fail("return " + std::to_string(R.ReturnValue) + " != reference " +
                std::to_string(Ref.Return));
  if (Continuous) {
    if (R.Output != Ref.Output)
      return Fail("output differs from reference");
    return true;
  }
  // Re-execution may replay output writes, never alter them.
  size_t J = 0;
  for (size_t I = 0; I != R.Output.size() && J != Ref.Output.size(); ++I)
    if (R.Output[I] == Ref.Output[J])
      ++J;
  if (J != Ref.Output.size())
    return Fail("output is not a replay of the reference output");
  return true;
}

std::string perfbench::emulationFingerprint(const EmulatorResult &R) {
  std::string Out;
  for (uint64_t V :
       {uint64_t(R.Ok), uint64_t(uint32_t(R.ReturnValue)), R.TotalCycles,
        R.InstructionsExecuted, R.CheckpointsExecuted, uint64_t(R.PowerFailures),
        R.InterruptsTaken, R.WarViolations, uint64_t(R.Output.size()),
        serve::fnv1a(R.FinalMemory.data(), R.FinalMemory.size())})
    Out += std::to_string(V) + ",";
  return Out;
}

std::string Quality::fingerprint() const {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%.17g,%llu,%llu,%llu,%.17g", CyclesVsPlainC,
                (unsigned long long)Ckpts, (unsigned long long)CodeBytes,
                (unsigned long long)MaxRegion, ReexecShare);
  return Buf;
}

std::string perfbench::setupFingerprint(
    const Quality &Q, const std::map<std::string, double> &Work) {
  std::string Fp = Q.fingerprint();
  for (const auto &[K, V] : Work)
    Fp += "," + K + "=" + std::to_string(V);
  return Fp;
}

void QualityAccumulator::add(const QualityCell &C,
                             const EmulatorResult &Continuous,
                             const EmulatorResult *Intermittent) {
  Sum.CodeBytes += C.MM->textSizeBytes();
  if (C.Cfg->plain()) {
    PlainCycles[C.Program] = Continuous.TotalCycles;
    return;
  }
  Instrumented.push_back({C.Program, Continuous.TotalCycles});
  Sum.Ckpts += Continuous.CheckpointsExecuted;
  for (uint64_t Size : Continuous.RegionSizes)
    Sum.MaxRegion = std::max(Sum.MaxRegion, Size);
  if (Intermittent) {
    ReexecCycles += Intermittent->TotalCycles - Continuous.TotalCycles;
    IntermittentCycles += Intermittent->TotalCycles;
  }
}

bool QualityAccumulator::finish(Quality &Q, std::string *Why) const {
  Q = Sum;
  double LogSum = 0;
  for (const auto &[Prog, Cycles] : Instrumented) {
    auto It = PlainCycles.find(Prog);
    if (It == PlainCycles.end()) {
      if (Why)
        *Why = Prog + ": no plain-C cell to normalize against";
      return false;
    }
    LogSum += std::log(double(Cycles) / double(It->second));
  }
  if (!Instrumented.empty())
    Q.CyclesVsPlainC = std::exp(LogSum / double(Instrumented.size()));
  if (IntermittentCycles)
    Q.ReexecShare = double(ReexecCycles) / double(IntermittentCycles);
  return true;
}

bool perfbench::checkCell(const QualityCell &C, const Reference &Ref,
                          QualityAccumulator *Acc, std::string *Why) {
  SpanScope S("check.emulate");
  Emulator E(*C.MM);
  EmulatorResult Cont = E.run(runOptions(*C.Cfg, {}));
  std::string Detail;
  if (!matchesReference(Cont, Ref, true, &Detail)) {
    if (Why)
      *Why = C.Program + "/" + C.Cfg->Name + " continuous: " + Detail;
    return false;
  }
  if (C.Cfg->plain()) {
    if (Acc)
      Acc->add(C, Cont, nullptr);
    return true;
  }
  EmulatorOptions EO;
  EO.Power = PowerSchedule::fixed(QualityPeriod);
  EO.CollectRegionSizes = false;
  EmulatorResult Int = E.run(runOptions(*C.Cfg, EO));
  if (!matchesReference(Int, Ref, false, &Detail)) {
    if (Why)
      *Why = C.Program + "/" + C.Cfg->Name + " at a " +
             std::to_string(QualityPeriod) + "-cycle on-period: " + Detail;
    return false;
  }
  if (Acc)
    Acc->add(C, Cont, &Int);
  return true;
}

void Report::fail(const std::string &Why, uint64_t Ops) {
  Failed += Ops;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double perfbench::median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

double perfbench::processCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

void perfbench::addEndToEnd(Report &R, double SetupSeconds, const OpLog &L,
                            const Quality &Q) {
  R.Attempted += L.Attempted;
  R.QualityFingerprint = Q.fingerprint();
  R.EndToEnd = {
      {"setup_s", SetupSeconds, "s"},
      {"ops_per_s", L.OpsPerSecond, "1/s"},
      {"op_ms_p50", L.P50Ms, "ms"},
      {"op_ms_p95", L.P95Ms, "ms"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"cycles_vs_plainc_geomean", Q.CyclesVsPlainC, "ratio"},
      {"ckpts_executed", double(Q.Ckpts), "count"},
      {"code_bytes", double(Q.CodeBytes), "bytes"},
      {"max_region_cycles", double(Q.MaxRegion), "cycles"},
      {"reexec_share", Q.ReexecShare, "ratio"},
  };
}

double perfbench::timedSetups(Report &R,
                              const std::function<std::string()> &Setup) {
  std::vector<double> Times;
  std::string First;
  const bool Traced = traceState().On;
  double Total = 0;
  for (unsigned I = 0; I < MinSetupRounds ||
                       (Total < MinSetupSeconds && I < MaxSetupRounds);
       ++I) {
    beginOp(I, Traced && I == 0);
    double T0 = now();
    std::string Fp;
    {
      SpanScope S("setup");
      Fp = Setup();
    }
    Times.push_back(now() - T0);
    Total += Times.back();
    if (I == 0)
      First = Fp;
    else if (Fp != First)
      R.fail("set-up round " + std::to_string(I) +
             " is not deterministic: " + Fp + " vs " + First);
  }
  beginOp(0, Traced);
  return median(Times);
}

OpLog perfbench::runPasses(size_t N, const Args &A, Report &R,
                           const std::function<void(size_t)> &Op,
                           const std::function<void(size_t)> &Check) {
  OpLog L;
  std::vector<std::vector<double>> CellMs(N), TracedMs(N);
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  Rng Shuffle(A.Seed ^ 0x9A55E5ull);
  const double Start = now(), StartCpu = processCpuSeconds();
  const double Deadline = Start + A.Seconds;
  for (uint64_t Pass = 0;
       N && (now() < Deadline || (A.Trace && Pass < MinTracedPasses));
       ++Pass) {
    for (size_t J = N - 1; J > 0; --J)
      std::swap(Order[J], Order[Shuffle.below(unsigned(J + 1))]);
    for (size_t C : Order) {
      const bool Traced = tracedOp(A, Pass, C);
      beginOp(++L.Attempted, Traced);
      if (Traced)
        R.TracedOpCell[L.Attempted] = C;
      const double S = now();
      {
        SpanScope Sp("op");
        Op(C);
      }
      const double Ms = (now() - S) * 1e3;
      beginOp(0, false);
      (Traced ? TracedMs : CellMs)[C].push_back(Ms);
      Check(C);
    }
  }
  R.CpuPerWall = (processCpuSeconds() - StartCpu) / (now() - Start);
  if (A.Trace)
    R.TraceOverheadMs = pairedOverheadMs(TracedMs, CellMs);
  std::vector<double> CellMedians;
  double PassMs = 0; // A pass at every cell's median latency.
  for (const std::vector<double> &V : CellMs) {
    CellMedians.push_back(median(V));
    PassMs += CellMedians.back();
  }
  L.P50Ms = percentile(CellMedians, 0.50);
  L.P95Ms = percentile(CellMedians, 0.95);
  L.OpsPerSecond = PassMs > 0 ? double(N) * 1e3 / PassMs : 0;
  return L;
}

double perfbench::pairedOverheadMs(
    const std::vector<std::vector<double>> &TracedMs,
    const std::vector<std::vector<double>> &UntracedMs) {
  std::vector<double> Diffs;
  for (size_t C = 0; C != TracedMs.size() && C != UntracedMs.size(); ++C)
    if (!TracedMs[C].empty() && !UntracedMs[C].empty())
      Diffs.push_back(median(TracedMs[C]) - median(UntracedMs[C]));
  return median(Diffs);
}

void perfbench::beginOp(uint64_t Op, bool Traced) {
  TraceState &S = traceState();
  S.On = Traced;
  S.Op = Op;
  S.Parent = -1;
}

FirstRuns::Verdict FirstRuns::check(size_t Cell, std::string Fingerprint) {
  if (Fps[Cell].empty()) {
    Fps[Cell] = std::move(Fingerprint);
    return First;
  }
  return Fps[Cell] == Fingerprint ? Same : Differs;
}
