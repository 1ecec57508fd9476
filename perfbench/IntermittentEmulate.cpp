//===----------------------------------------------------------------------===//
///
/// \file
/// intermittent-emulate: one op is one Emulator::run of one precompiled
/// module (six paper programs under plain C, ratchet, r-pdg, wario,
/// wario+expander, wario-diff and wario-spec) under one power schedule:
/// continuous, fixed on-periods, a seeded harvester-like trace, or
/// periodic interrupts. Every compile and every Emulator constructor runs
/// in set-up, so the engine does almost all the timed work and a compiler
/// change shows only in setup_s and the code-quality counts.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "emu/ThreadedEngine.h"

#include <cmath>

using namespace perfbench;
using namespace wario;

namespace {

/// About how long one pass (192 emulations) takes on a 4-core x86-64
/// Release build; it fixes the passes a traced run's per-layer times
/// count.
constexpr double NominalPassSeconds = 1.0;

struct Schedule {
  std::string Name;
  EmulatorOptions EO;
  bool FailsPower = false; ///< Plain C cannot run under it.
};

/// 64 on-periods spaced log-uniformly from 60k to 2M cycles, like a
/// harvester whose charge time varies widely between boots, in a seeded
/// order: the seed changes where power fails, not how often.
PowerSchedule seededTrace(uint64_t Seed) {
  std::vector<uint64_t> D;
  for (unsigned I = 0; I != 64; ++I)
    D.push_back(uint64_t(60'000.0 * std::pow(2'000'000.0 / 60'000.0, I / 63.0)));
  Rng R(Seed ^ 0x4841525645ull);
  for (size_t I = D.size() - 1; I > 0; --I)
    std::swap(D[I], D[R.below(unsigned(I + 1))]);
  return PowerSchedule::trace(std::move(D), "seeded");
}

std::vector<Schedule> schedules(uint64_t Seed) {
  std::vector<Schedule> S;
  auto Add = [&](std::string Name, PowerSchedule P, uint64_t Irq, bool Fails) {
    Schedule X;
    X.Name = std::move(Name);
    X.EO.Power = std::move(P);
    X.EO.InterruptPeriod = Irq;
    X.EO.CollectRegionSizes = false;
    X.FailsPower = Fails;
    S.push_back(std::move(X));
  };
  Add("continuous", PowerSchedule::continuous(), 0, false);
  Add("on-100k", PowerSchedule::fixed(100'000), 0, true);
  Add("on-1M", PowerSchedule::fixed(1'000'000), 0, true);
  Add("harvester", seededTrace(Seed), 0, true);
  Add("irq-10k", PowerSchedule::continuous(), 10'000, false);
  return S;
}

std::vector<Config> emulateConfigs() {
  std::vector<Config> C;
  for (Environment E :
       {Environment::PlainC, Environment::Ratchet, Environment::RPDG,
        Environment::WarioComplete, Environment::WarioExpander})
    C.push_back(envConfig(E));
  C.push_back(strategyConfig(CheckpointStrategy::Differential));
  C.push_back(strategyConfig(CheckpointStrategy::Speculative));
  return C;
}

struct Prepared {
  std::string Program;
  const Config *Cfg = nullptr;
  std::unique_ptr<Compiled> Code;
  std::unique_ptr<Emulator> Emu;
};

struct Cell {
  size_t Mod;
  size_t Sched;
};

struct Inputs {
  std::vector<Config> Configs;
  std::vector<Schedule> Schedules;
  std::map<std::string, Reference> Refs;
  std::vector<Prepared> Modules;
  std::vector<Cell> Cells;
  Quality Q;
  std::map<std::string, double> CompileWork;
};

} // namespace

void perfbench::runIntermittentEmulate(const Args &A, Report &R) {
  Inputs In;
  double SetupSeconds = timedSetups(R, [&] {
    Inputs S;
    S.Configs = emulateConfigs();
    S.Schedules = schedules(A.Seed);
    QualityAccumulator Acc;
    for (const Program &P : paperPrograms()) {
      S.Refs[P.Name] = interpretReference(P);
      if (!S.Refs[P.Name].Ok)
        R.fail(S.Refs[P.Name].Error);
      for (const Config &C : S.Configs) {
        Prepared M;
        M.Program = P.Name;
        M.Cfg = &C;
        M.Code = std::make_unique<Compiled>(compileProgram(P, C.PO));
        if (!M.Code->ok()) {
          R.fail(M.Code->Error);
          continue;
        }
        addCompileCounters(S.CompileWork, *M.Code);
        std::string Why;
        if (!checkCell({P.Name, &C, &M.Code->MM}, S.Refs[P.Name], &Acc, &Why))
          R.fail(Why);
        {
          SpanScope Sp("emu.prepare");
          M.Emu = std::make_unique<Emulator>(M.Code->MM);
        }
        S.Modules.push_back(std::move(M));
      }
    }
    std::string Why;
    if (!Acc.finish(S.Q, &Why))
      R.fail(Why);
    for (size_t M = 0; M != S.Modules.size(); ++M)
      for (size_t Sc = 0; Sc != S.Schedules.size(); ++Sc)
        if (!S.Modules[M].Cfg->plain() || !S.Schedules[Sc].FailsPower)
          S.Cells.push_back({M, Sc});
    std::string Fp = setupFingerprint(S.Q, S.CompileWork);
    In = std::move(S);
    return Fp;
  });
  R.Work = In.CompileWork;

  // Timed phase: whole passes over every (module, schedule) cell. Each
  // result is checked against the interpreter reference and, after its
  // first run, against that run's fingerprint.
  const size_t N = In.Cells.size();
  FirstRuns Firsts(N);
  uint64_t Insts = 0, Dispatches = 0, Fused = 0, Threaded = 0, Failures = 0;
  uint64_t AllInsts = 0;
  double RunSeconds = 0;
  EngineStats St;
  EmulatorResult Res;
  OpLog L = runPasses(
      N, A, R,
      [&](size_t C) {
        const Prepared &M = In.Modules[In.Cells[C].Mod];
        St = EngineStats();
        const double S = now();
        SpanScope Sp("emu.run");
        Res = M.Emu->run(runOptions(*M.Cfg, In.Schedules[In.Cells[C].Sched].EO),
                         "main", nullptr, &St);
        RunSeconds += now() - S;
      },
      [&](size_t C) {
        const Prepared &M = In.Modules[In.Cells[C].Mod];
        const Schedule &Sc = In.Schedules[In.Cells[C].Sched];
        const std::string Key = M.Program + "/" + M.Cfg->Name + "/" + Sc.Name;
        AllInsts += Res.InstructionsExecuted;
        std::string Why;
        if (!matchesReference(Res, In.Refs.at(M.Program), !Sc.FailsPower,
                              &Why))
          return R.fail(Key + ": " + Why);
        FirstRuns::Verdict V = Firsts.check(
            C, emulationFingerprint(Res) + std::to_string(St.Dispatches) +
                   "," + std::to_string(St.FusedInstructions) + "," +
                   std::to_string(St.ThreadedInstructions));
        if (V == FirstRuns::Differs)
          R.fail(Key + ": emulation is not deterministic");
        if (V != FirstRuns::First)
          return;
        Insts += Res.InstructionsExecuted;
        Dispatches += St.Dispatches;
        Fused += St.FusedInstructions;
        Threaded += St.ThreadedInstructions;
        Failures += Res.PowerFailures;
      });

  R.Work["emu.insts"] = double(Insts);
  R.Work["emu.dispatches"] = double(Dispatches);
  R.Work["emu.fused_insn_share"] = Insts ? double(Fused) / double(Insts) : 0;
  R.Work["emu.threaded_insn_share"] =
      Insts ? double(Threaded) / double(Insts) : 0;
  R.Work["emu.power_failures"] = double(Failures);
  R.Layer["emu.minsts_per_s"] =
      RunSeconds > 0 ? double(AllInsts) / RunSeconds / 1e6 : 0;
  R.NominalPasses = nominalPasses(A, NominalPassSeconds);
  addEndToEnd(R, SetupSeconds, L, In.Q);
}
