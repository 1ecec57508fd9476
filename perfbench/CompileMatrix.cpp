//===----------------------------------------------------------------------===//
///
/// \file
/// compile-matrix: one op is one uncached compile of one program under one
/// configuration (front end, front half, middle end, back end). The
/// programs are the six paper programs plus four generated ones, tiny to
/// picojpeg scale; the configurations are every Environment under the
/// idempotent strategy plus wario-diff and wario-spec. The middle and back
/// end do almost all the work; the emulator runs only in the checks after
/// the timed phase, so an emulator change should not move these ops.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "analysis/MemoryDependence.h"

using namespace perfbench;
using namespace wario;

namespace {

/// About how long one pass (100 compiles) takes on a 4-core x86-64
/// Release build; it fixes the passes a traced run's per-layer times
/// count.
constexpr double NominalPassSeconds = 4.0;

struct Cell {
  size_t Prog;
  size_t Cfg;
};

struct Inputs {
  std::vector<Program> Programs;
  std::vector<Config> Configs;
  std::map<std::string, Reference> Refs;
  std::vector<Cell> Cells;
};

/// The paper programs plus one generated program per size class.
std::vector<Program> inputPrograms(uint64_t Seed) {
  std::vector<Program> P = paperPrograms();
  const std::pair<SizeClass, const char *> Classes[] = {
      {SizeClass::Tiny, "gen-tiny"},
      {SizeClass::Small, "gen-small"},
      {SizeClass::Medium, "gen-medium"},
      {SizeClass::Large, "gen-large"}};
  for (const auto &[C, Name] : Classes)
    P.push_back(generatedProgram(C, Seed * 0x100 + unsigned(C), Name));
  return P;
}

std::vector<Config> matrixConfigs() {
  std::vector<Config> C;
  for (Environment E : allEnvironments())
    C.push_back(envConfig(E));
  C.push_back(strategyConfig(CheckpointStrategy::Differential));
  C.push_back(strategyConfig(CheckpointStrategy::Speculative));
  return C;
}

/// Standalone builds of each analysis over every function of the
/// front-half output, each in its own span (traced runs only): alias
/// queries over every access pair with a store, then the dominator tree,
/// loop info and memory dependence graph.
void analysisBuilds(const Program &P) {
  std::unique_ptr<Module> M = runFrontend(P, nullptr);
  if (!M)
    return;
  PipelineStats S;
  {
    SpanScope Sp("driver.front_half");
    runFrontHalf(*M, S);
  }
  for (const Function *F : M->functions()) {
    if (F->isDeclaration())
      continue;
    AliasAnalysis AA(AliasPrecision::Precise);
    {
      SpanScope Sp("analysis.alias");
      std::vector<const Instruction *> Accesses;
      for (BasicBlock *BB : *F)
        for (Instruction *I : *BB)
          if (I->isMemoryAccess())
            Accesses.push_back(I);
      for (size_t I = 0; I != Accesses.size(); ++I)
        for (size_t J = I + 1; J != Accesses.size(); ++J)
          if (Accesses[I]->getOpcode() == Opcode::Store ||
              Accesses[J]->getOpcode() == Opcode::Store)
            AA.alias(Accesses[I], Accesses[J]);
    }
    std::unique_ptr<DominatorTree> DT;
    {
      SpanScope Sp("analysis.domtree");
      DT = std::make_unique<DominatorTree>(*F);
    }
    std::unique_ptr<LoopInfo> LI;
    {
      SpanScope Sp("analysis.loopinfo");
      LI = std::make_unique<LoopInfo>(*F, *DT);
    }
    SpanScope Sp("analysis.mdg");
    MemoryDependence MD(*F, AA, *LI);
  }
}

} // namespace

void perfbench::runCompileMatrix(const Args &A, Report &R) {
  Inputs In;
  double SetupSeconds = timedSetups(R, [&] {
    Inputs S;
    S.Programs = inputPrograms(A.Seed);
    S.Configs = matrixConfigs();
    std::string Fp;
    for (const Program &P : S.Programs) {
      Reference Ref = interpretReference(P);
      if (!Ref.Ok)
        R.fail(Ref.Error);
      Fp += P.Name + "=" + std::to_string(Ref.Return) + ";";
      S.Refs[P.Name] = std::move(Ref);
    }
    for (size_t P = 0; P != S.Programs.size(); ++P)
      for (size_t C = 0; C != S.Configs.size(); ++C)
        S.Cells.push_back({P, C});
    In = std::move(S);
    return Fp;
  });

  // Timed phase: whole passes over every cell. The first compile of each
  // cell is kept for the checks; every later one must reproduce its
  // fingerprint.
  const size_t N = In.Cells.size();
  std::vector<std::unique_ptr<Compiled>> First(N);
  std::vector<uint64_t> OpsOf(N, 0);
  FirstRuns Firsts(N);
  Compiled Out;
  OpLog L = runPasses(
      N, A, R,
      [&](size_t C) {
        Out = compileProgram(In.Programs[In.Cells[C].Prog],
                             In.Configs[In.Cells[C].Cfg].PO);
      },
      [&](size_t C) {
        const std::string Key = In.Programs[In.Cells[C].Prog].Name + "/" +
                                In.Configs[In.Cells[C].Cfg].Name;
        ++OpsOf[C];
        if (!Out.ok())
          return R.fail(Out.Error);
        FirstRuns::Verdict V = Firsts.check(C, compileFingerprint(Out));
        if (V == FirstRuns::Differs)
          R.fail(Key + ": compile is not deterministic");
        else if (V == FirstRuns::First)
          First[C] = std::make_unique<Compiled>(std::move(Out));
      });

  // Checks, untimed: every cell runs against the interpreter reference; a
  // bad cell fails every op that compiled it. The paper cells give the
  // code quality.
  QualityAccumulator Acc;
  for (size_t C = 0; C != N; ++C) {
    const Program &P = In.Programs[In.Cells[C].Prog];
    const Config &Cfg = In.Configs[In.Cells[C].Cfg];
    if (!First[C])
      continue; // Its compile failed and was counted.
    addCompileCounters(R.Work, *First[C]);
    std::string Why;
    if (!checkCell({P.Name, &Cfg, &First[C]->MM}, In.Refs.at(P.Name),
                   P.Paper ? &Acc : nullptr, &Why))
      R.fail(Why, OpsOf[C]);
  }
  Quality Q;
  std::string Why;
  if (!Acc.finish(Q, &Why))
    R.fail(Why);

  if (A.Trace) {
    for (size_t P = 0; P != In.Programs.size(); ++P) {
      beginOp(1'000'000 + P, true);
      analysisBuilds(In.Programs[P]);
    }
    beginOp(0, false);
  }
  R.NominalPasses = nominalPasses(A, NominalPassSeconds);
  addEndToEnd(R, SetupSeconds, L, Q);
}
