//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test of the checkpoint inserter's placement analyses
/// against a test-local oracle: the straightforward formulation each
/// fast path replaces.
///
///  - "Is this WAR already cut?": a per-WAR block BFS from the read,
///    scanning each block's instruction list, versus RegionCutSummary's
///    O(1) position compare and entered-block bitsets.
///  - Resolving points: iterator walks located with std::find, versus
///    index ranges over the summary's per-block instruction vectors.
///  - Hitting set: an eager greedy that rescans every candidate point per
///    pick, versus pickHittingSet's lazy max-heap.
///
/// They must agree on every per-WAR verdict, on the multiset of points
/// each WAR lists, and on the exact pick sequence, for every generated
/// program in every environment and rollback strategy, and on hand-
/// written CFGs covering each shape the summary special-cases.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "analysis/MemoryDependence.h"
#include "driver/Pipeline.h"
#include "frontend/Frontend.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "transforms/CheckpointInserter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_set>

using namespace wario;
using namespace wario::test;

namespace {

// --- The oracle ---------------------------------------------------------

namespace oracle {

bool isRegionCut(const Instruction *I) {
  return I->getOpcode() == Opcode::Checkpoint ||
         I->getOpcode() == Opcode::Call;
}

/// Does every execution path from just after R to W pass a region cut?
/// Scans R's block past R, then runs a block-level BFS; each visited
/// block is scanned from its head until W, a cut, or its end.
bool warIsCut(const Instruction *R, const Instruction *W) {
  enum ScanResult { FoundW, Blocked, FellThrough };
  auto Scan = [&](BasicBlock::const_iterator It,
                  BasicBlock::const_iterator End) {
    for (; It != End; ++It) {
      if (*It == W)
        return FoundW;
      if (isRegionCut(*It))
        return Blocked;
    }
    return FellThrough;
  };

  const BasicBlock *RB = R->getParent();
  auto StartIt = std::find(RB->begin(), RB->end(), R);
  EXPECT_TRUE(StartIt != RB->end());
  ++StartIt;

  std::vector<const BasicBlock *> Work;
  std::unordered_set<const BasicBlock *> Visited;
  switch (Scan(StartIt, RB->end())) {
  case FoundW:
    return false;
  case Blocked:
    return true;
  case FellThrough:
    for (const BasicBlock *S : RB->successors())
      if (Visited.insert(S).second)
        Work.push_back(S);
    break;
  }
  while (!Work.empty()) {
    const BasicBlock *BB = Work.back();
    Work.pop_back();
    switch (Scan(BB->begin(), BB->end())) {
    case FoundW:
      return false;
    case Blocked:
      continue;
    case FellThrough:
      for (const BasicBlock *S : BB->successors())
        if (Visited.insert(S).second)
          Work.push_back(S);
      break;
    }
  }
  return true;
}

/// The program points resolving the WAR (R, W), walked off the block
/// lists; see RegionCutSummary::resolvingPoints for the three cases.
std::vector<Instruction *> resolvingPoints(Instruction *R, Instruction *W,
                                           bool Carried) {
  std::vector<Instruction *> Points;
  BasicBlock *RB = R->getParent(), *WB = W->getParent();
  auto PushRange = [&](BasicBlock::iterator It, BasicBlock::iterator End) {
    for (; It != End; ++It)
      if ((*It)->getOpcode() != Opcode::Phi)
        Points.push_back(*It);
  };
  if (RB == WB) {
    auto RIt = std::find(RB->begin(), RB->end(), R);
    auto WIt = std::find(RB->begin(), RB->end(), W);
    bool RFirst = false;
    for (auto It = RB->begin(); It != RB->end(); ++It) {
      if (*It == R) {
        RFirst = true;
        break;
      }
      if (*It == W)
        break;
    }
    if (RFirst && !Carried) {
      PushRange(std::next(RIt), std::next(WIt));
    } else {
      PushRange(std::next(RIt), RB->end());
      PushRange(RB->begin(), std::next(WIt));
    }
    return Points;
  }
  auto WIt = std::find(WB->begin(), WB->end(), W);
  PushRange(WB->begin(), std::next(WIt));
  return Points;
}

/// Eager greedy hitting set over the same input as pickHittingSet: every
/// pick rescans every candidate in id order and keeps the first strictly
/// best count / 4^depth score, where a candidate's count is its point
/// occurrences among unresolved WARs.
std::vector<Instruction *> greedy(const std::vector<Instruction *> &Points,
                                  const std::vector<unsigned> &Begin,
                                  const LoopInfo &LI,
                                  bool DepthWeightedCost) {
  std::map<unsigned, Instruction *> PointById;
  for (Instruction *P : Points)
    PointById[P->getId()] = P;
  struct Candidate {
    Instruction *P;
    double Cost = 1.0;
    unsigned Count = 0;
    std::vector<unsigned> Covers;
  };
  std::vector<Candidate> Candidates; // In id order.
  std::map<unsigned, unsigned> CandidateOf;
  for (auto &[Id, P] : PointById) {
    CandidateOf[Id] = unsigned(Candidates.size());
    Candidates.push_back({P});
    if (DepthWeightedCost) {
      unsigned Depth = std::min(LI.getLoopDepth(P->getParent()), 8u);
      for (unsigned I = 0; I != Depth; ++I)
        Candidates.back().Cost *= 4.0;
    }
  }
  // Each WAR's candidates, one entry per point occurrence.
  std::vector<std::vector<unsigned>> OfWar(Begin.size() - 1);
  for (unsigned Idx = 0; Idx != OfWar.size(); ++Idx)
    for (unsigned K = Begin[Idx]; K != Begin[Idx + 1]; ++K) {
      unsigned C = CandidateOf.at(Points[K]->getId());
      OfWar[Idx].push_back(C);
      Candidates[C].Covers.push_back(Idx);
      ++Candidates[C].Count;
    }

  std::vector<Instruction *> Picks;
  std::vector<bool> Resolved(OfWar.size(), false);
  size_t Remaining = OfWar.size();
  while (Remaining != 0) {
    const Candidate *Best = nullptr;
    double BestScore = -1.0;
    for (const Candidate &C : Candidates) {
      if (C.Count == 0)
        continue;
      double Score = double(C.Count) / C.Cost;
      if (Score > BestScore) {
        BestScore = Score;
        Best = &C;
      }
    }
    if (!Best) {
      ADD_FAILURE() << "oracle hitting set failed to cover every WAR";
      break;
    }
    Picks.push_back(Best->P);
    for (unsigned Idx : Best->Covers)
      if (!Resolved[Idx]) {
        Resolved[Idx] = true;
        --Remaining;
        for (unsigned C : OfWar[Idx])
          --Candidates[C].Count;
      }
  }
  return Picks;
}

} // namespace oracle

// --- Comparison ---------------------------------------------------------

/// The instructions a WAR's point ranges denote, in range order.
std::vector<Instruction *> expand(const RegionCutSummary &Cuts,
                                  const RegionCutSummary::WarPoints &WP) {
  std::vector<Instruction *> Points;
  for (const RegionCutSummary::PointRange &PR : WP)
    for (unsigned P = PR.Begin; P < PR.End; ++P)
      Points.push_back(Cuts.instructionAt(P));
  return Points;
}

std::vector<unsigned> ids(const std::vector<Instruction *> &Insts) {
  std::vector<unsigned> Ids;
  for (const Instruction *I : Insts)
    Ids.push_back(I->getId());
  return Ids;
}

/// Order-insensitive form, for comparing multisets of points.
std::vector<unsigned> sortedIds(const std::vector<Instruction *> &Insts) {
  std::vector<unsigned> Ids = ids(Insts);
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

std::string describe(const Instruction *R, const Instruction *W) {
  return "read '" + printInstruction(*R) + "' -> write '" +
         printInstruction(*W) + "'";
}

/// How much a comparison exercised, so a test can insist it was not
/// vacuous.
struct Coverage {
  unsigned Wars = 0;
  unsigned AlreadyCut = 0;
  unsigned Picks = 0;
};

/// The per-WAR block BFS is as slow as the code it checks: an unrolled
/// generated program can carry 200k WARs in one function. Past this many
/// WARs, verdicts and points are compared on an evenly strided sample.
constexpr unsigned MaxOracleWarsPerFunction = 4096;

/// Compares RegionCutSummary and pickHittingSet with the oracle on the
/// WARs the PDG reports for \p F: verdicts, points multisets, and the
/// pick sequence under both cost models.
void expectPlacementMatchesOracle(Function &F, AliasPrecision P,
                                  const std::string &Label,
                                  Coverage &Cov) {
  AliasAnalysis AA(P);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  MemoryDependence MD(F, AA, LI);
  RegionCutSummary Cuts(F);

  std::vector<const MemDep *> Wars = MD.wars();
  size_t Stride = (Wars.size() + MaxOracleWarsPerFunction - 1) /
                  MaxOracleWarsPerFunction;
  std::vector<RegionCutSummary::WarPoints> WarPoints;
  std::vector<Instruction *> Points; // Expanded, for the oracle greedy.
  std::vector<unsigned> Begin{0};
  for (size_t I = 0; I != Wars.size(); ++I) {
    const MemDep *D = Wars[I];
    bool Sampled = I % Stride == 0;
    ++Cov.Wars;
    bool Cut = Cuts.warIsCut(D->Src, D->Dst);
    if (Sampled)
      EXPECT_EQ(Cut, oracle::warIsCut(D->Src, D->Dst))
          << Label << ", @" << F.getName() << ": "
          << describe(D->Src, D->Dst);
    if (Cut) {
      ++Cov.AlreadyCut;
      continue;
    }
    WarPoints.push_back(
        Cuts.resolvingPoints(D->Src, D->Dst, D->LoopCarried));
    std::vector<Instruction *> Got = expand(Cuts, WarPoints.back());
    if (Sampled)
      EXPECT_EQ(sortedIds(Got),
                sortedIds(oracle::resolvingPoints(D->Src, D->Dst,
                                                  D->LoopCarried)))
          << Label << ", @" << F.getName() << ": "
          << describe(D->Src, D->Dst)
          << (D->LoopCarried ? " (carried)" : "");
    Points.insert(Points.end(), Got.begin(), Got.end());
    Begin.push_back(unsigned(Points.size()));
  }
  if (WarPoints.empty())
    return;
  for (bool DepthWeighted : {true, false}) {
    std::vector<Instruction *> Picks =
        pickHittingSet(F, LI, DepthWeighted, Cuts, WarPoints);
    EXPECT_EQ(ids(Picks),
              ids(oracle::greedy(Points, Begin, LI, DepthWeighted)))
        << Label << ", @" << F.getName()
        << (DepthWeighted ? ", depth-weighted" : ", uniform cost");
    Cov.Picks += unsigned(Picks.size());
  }
}

// --- Generated programs -------------------------------------------------

/// One middle-end configuration: an environment and a strategy.
struct Config {
  Environment Env;
  CheckpointStrategy Strat;
};

std::vector<Config> allConfigs() {
  std::vector<Config> Configs;
  for (Environment E : allEnvironments())
    Configs.push_back({E, CheckpointStrategy::Idempotent});
  Configs.push_back(
      {Environment::WarioComplete, CheckpointStrategy::Differential});
  Configs.push_back(
      {Environment::WarioComplete, CheckpointStrategy::Speculative});
  return Configs;
}

class SeedSuite : public ::testing::TestWithParam<uint32_t> {};

/// The placement input of each configuration is the IR its middle end
/// hands the inserter: the full middle end with WAR resolution switched
/// off (the rollback strategies never resolve; their region bounder has
/// already placed its loop checkpoints, which the summary must see as
/// cuts).
TEST_P(SeedSuite, MatchesOracleInEveryConfiguration) {
  uint32_t Seed = GetParam();
  RandomProgramGenerator Gen(Seed);
  std::string Source = Gen.generate();
  Coverage Cov;
  for (const Config &C : allConfigs()) {
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M = compileC(Source, "fuzz", Diags);
    ASSERT_TRUE(M) << "seed " << Seed << ":\n" << Diags.formatAll();
    PipelineOptions PO;
    PO.Env = C.Env;
    PO.Strat = C.Strat;
    PO.ResolveMiddleEndWars = false;
    PipelineStats S;
    runFrontHalf(*M, S);
    runMiddleEnd(*M, PO, S);
    AliasPrecision P = middleEndConfig(PO).ConservativeAA
                           ? AliasPrecision::Conservative
                           : AliasPrecision::Precise;
    std::string Label = "seed " + std::to_string(Seed) + " @ " +
                        environmentName(C.Env) + "/" +
                        std::to_string(int(C.Strat));
    for (auto &F : M->functions())
      if (!F->isDeclaration())
        expectPlacementMatchesOracle(*F, P, Label, Cov);
  }
  EXPECT_GT(Cov.Wars, 0u) << "seed " << Seed;
  EXPECT_GT(Cov.Picks, 0u) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(PlacementOracle, SeedSuite,
                         ::testing::Range(1u, 61u));

// --- Hand-written CFGs --------------------------------------------------

std::unique_ptr<Module> parse(const char *Text) {
  DiagnosticEngine Diags;
  auto M = parseModule(Text, Diags);
  EXPECT_TRUE(M) << Diags.formatAll();
  return M;
}

/// Compares verdicts on every (load, store) pair of @main, reachable or
/// not, then the full placement on the PDG's WARs.
Coverage checkAgainstOracle(Module &M) {
  Function &F = *M.getFunction("main");
  std::vector<Instruction *> Loads, Stores;
  for (BasicBlock *BB : F)
    for (Instruction *I : *BB) {
      if (I->getOpcode() == Opcode::Load)
        Loads.push_back(I);
      if (I->getOpcode() == Opcode::Store)
        Stores.push_back(I);
    }
  RegionCutSummary Cuts(F);
  for (Instruction *R : Loads)
    for (Instruction *W : Stores)
      EXPECT_EQ(Cuts.warIsCut(R, W), oracle::warIsCut(R, W))
          << describe(R, W);
  Coverage Cov;
  expectPlacementMatchesOracle(F, AliasPrecision::Precise, "hand-written",
                               Cov);
  return Cov;
}

/// The first instruction with opcode \p Op in block \p Block of @main
/// whose address operand is @\p Global.
Instruction *access(Module &M, const std::string &Block, Opcode Op,
                    const std::string &Global) {
  for (BasicBlock *BB : *M.getFunction("main"))
    if (BB->getName() == Block)
      for (Instruction *I : *BB)
        if (I->getOpcode() == Op &&
            I->getAddressOperand()->getName() == Global)
          return I;
  ADD_FAILURE() << "no such access in block " << Block;
  return nullptr;
}

TEST(PlacementOracle, ReadBeforeWriteInOneBlock) {
  auto M = parse(R"(global @a : 4 bytes

func @main() -> i32 {
entry:
  %l.0 = loadi32 @a
  %x.1 = add %l.0, 1
  storei32 %x.1, @a
  ret %l.0
}
)");
  ASSERT_TRUE(M);
  Coverage Cov = checkAgainstOracle(*M);
  EXPECT_EQ(Cov.Wars, 1u);
  EXPECT_EQ(Cov.AlreadyCut, 0u);
  Instruction *R = access(*M, "entry", Opcode::Load, "a");
  Instruction *W = access(*M, "entry", Opcode::Store, "a");
  RegionCutSummary Cuts(*M->getFunction("main"));
  std::vector<Instruction *> Points =
      expand(Cuts, Cuts.resolvingPoints(R, W, /*Carried=*/false));
  // (R, W]: the add and the store itself.
  ASSERT_EQ(Points.size(), 2u);
  EXPECT_EQ(Points.back(), W);
}

/// Pins the known overlap double-count (DESIGN.md section 5): a carried
/// WAR with R before W in one block lists (R, end) and [head, W], which
/// overlap on (R, W], so those points carry the WAR twice.
TEST(PlacementOracle, ReadBeforeWriteLoopCarriedCountsOverlapTwice) {
  auto M = parse(R"(global @s : 4 bytes

func @main() -> i32 {
entry:
  jmp loop
loop:
  %i.0 = phi [0, entry], [%n.3, loop]
  %l.1 = loadi32 @s
  %x.2 = add %l.1, %i.0
  storei32 %x.2, @s
  %n.3 = add %i.0, 1
  %c.4 = icmp slt %n.3, 8
  br %c.4, loop, exit
exit:
  %r.5 = loadi32 @s
  ret %r.5
}
)");
  ASSERT_TRUE(M);
  Coverage Cov = checkAgainstOracle(*M);
  EXPECT_EQ(Cov.Wars, 2u); // Direct and carried instances.
  EXPECT_EQ(Cov.AlreadyCut, 0u);
  Instruction *R = access(*M, "loop", Opcode::Load, "s");
  Instruction *W = access(*M, "loop", Opcode::Store, "s");
  RegionCutSummary Cuts(*M->getFunction("main"));
  std::vector<Instruction *> Points =
      expand(Cuts, Cuts.resolvingPoints(R, W, /*Carried=*/true));
  // Non-phi loop body: load, add, store, add, icmp, br. (R, end) has 5
  // points and [head, W] has 3; the add and the store appear twice.
  EXPECT_EQ(Points.size(), 8u);
  EXPECT_EQ(std::count(Points.begin(), Points.end(), W), 2);
  EXPECT_EQ(std::count(Points.begin(), Points.end(), R), 1);
}

TEST(PlacementOracle, WriteBeforeReadLoopCarried) {
  auto M = parse(R"(global @x : 4 bytes

func @main() -> i32 {
entry:
  jmp loop
loop:
  %i.0 = phi [0, entry], [%n.2, loop]
  storei32 %i.0, @x
  %l.1 = loadi32 @x
  %n.2 = add %i.0, 1
  %c.3 = icmp slt %n.2, 9
  br %c.3, loop, exit
exit:
  %r.4 = loadi32 @x
  ret %r.4
}
)");
  ASSERT_TRUE(M);
  Coverage Cov = checkAgainstOracle(*M);
  EXPECT_EQ(Cov.Wars, 1u);
  EXPECT_EQ(Cov.AlreadyCut, 0u);
  Instruction *R = access(*M, "loop", Opcode::Load, "x");
  Instruction *W = access(*M, "loop", Opcode::Store, "x");
  RegionCutSummary Cuts(*M->getFunction("main"));
  std::vector<Instruction *> Points =
      expand(Cuts, Cuts.resolvingPoints(R, W, /*Carried=*/true));
  // (R, end) = add, icmp, br; [head, W] = the store. Disjoint.
  EXPECT_EQ(Points.size(), 4u);
  EXPECT_EQ(std::count(Points.begin(), Points.end(), W), 1);
}

TEST(PlacementOracle, CallBetweenReadAndWriteCuts) {
  auto M = parse(R"(global @g : 4 bytes

func @tick() {
entry:
  ret
}

func @main() -> i32 {
entry:
  %l.0 = loadi32 @g
  call @tick()
  storei32 7, @g
  ret %l.0
}
)");
  ASSERT_TRUE(M);
  Coverage Cov = checkAgainstOracle(*M);
  EXPECT_EQ(Cov.Wars, 1u);
  EXPECT_EQ(Cov.AlreadyCut, 1u);
}

TEST(PlacementOracle, CutBeforeWriteInWritesBlock) {
  // @g's write sits after the checkpoint (cut); @h's before it (not).
  auto M = parse(R"(global @g : 4 bytes
global @h : 4 bytes

func @main() -> i32 {
entry:
  %l.0 = loadi32 @g
  %m.1 = loadi32 @h
  jmp next
next:
  storei32 7, @h
  checkpoint
  storei32 7, @g
  ret %l.0
}
)");
  ASSERT_TRUE(M);
  Coverage Cov = checkAgainstOracle(*M);
  EXPECT_EQ(Cov.Wars, 2u);
  EXPECT_EQ(Cov.AlreadyCut, 1u);
  RegionCutSummary Cuts(*M->getFunction("main"));
  EXPECT_TRUE(Cuts.warIsCut(access(*M, "entry", Opcode::Load, "g"),
                            access(*M, "next", Opcode::Store, "g")));
  EXPECT_FALSE(Cuts.warIsCut(access(*M, "entry", Opcode::Load, "h"),
                             access(*M, "next", Opcode::Store, "h")));
}

TEST(PlacementOracle, SelfLoopBlock) {
  // Each loop re-enters itself. @a: W at the head before the cut, R
  // after it, so the re-entry reaches W uncut. @b: the cut follows R.
  // @c: the cut leads the block, so the re-entry is blocked before W.
  auto M = parse(R"(global @a : 4 bytes
global @b : 4 bytes
global @c : 4 bytes

func @main() -> i32 {
entry:
  jmp la
la:
  %i.0 = phi [0, entry], [%n.3, la]
  storei32 %i.0, @a
  checkpoint
  %l.1 = loadi32 @a
  %n.3 = add %i.0, 1
  %c.4 = icmp slt %n.3, 4
  br %c.4, la, lb
lb:
  %j.5 = phi [0, la], [%m.8, lb]
  storei32 %j.5, @b
  %l.6 = loadi32 @b
  checkpoint
  %m.8 = add %j.5, 1
  %d.9 = icmp slt %m.8, 4
  br %d.9, lb, lc
lc:
  %k.10 = phi [0, lb], [%o.13, lc]
  checkpoint
  storei32 %k.10, @c
  %l.12 = loadi32 @c
  %o.13 = add %k.10, 1
  %e.14 = icmp slt %o.13, 4
  br %e.14, lc, exit
exit:
  ret %o.13
}
)");
  ASSERT_TRUE(M);
  Coverage Cov = checkAgainstOracle(*M);
  EXPECT_GE(Cov.Wars, 3u);
  RegionCutSummary Cuts(*M->getFunction("main"));
  EXPECT_FALSE(Cuts.warIsCut(access(*M, "la", Opcode::Load, "a"),
                             access(*M, "la", Opcode::Store, "a")));
  EXPECT_TRUE(Cuts.warIsCut(access(*M, "lb", Opcode::Load, "b"),
                            access(*M, "lb", Opcode::Store, "b")));
  EXPECT_TRUE(Cuts.warIsCut(access(*M, "lc", Opcode::Load, "c"),
                            access(*M, "lc", Opcode::Store, "c")));
}

TEST(PlacementOracle, DiamondWithOneCuttingArm) {
  // @x: only the left arm calls, so the right arm reaches the write
  // uncut. @y: its write follows a second diamond whose arms both call.
  auto M = parse(R"(global @x : 4 bytes
global @y : 4 bytes
global @f : 4 bytes

func @tick() {
entry:
  ret
}

func @main() -> i32 {
entry:
  %l.0 = loadi32 @x
  %c.1 = loadi32 @f
  br %c.1, left, right
left:
  call @tick()
  jmp join
right:
  jmp join
join:
  storei32 1, @x
  %m.2 = loadi32 @y
  br %c.1, left2, right2
left2:
  call @tick()
  jmp join2
right2:
  call @tick()
  jmp join2
join2:
  storei32 2, @y
  ret %l.0
}
)");
  ASSERT_TRUE(M);
  checkAgainstOracle(*M);
  RegionCutSummary Cuts(*M->getFunction("main"));
  EXPECT_FALSE(Cuts.warIsCut(access(*M, "entry", Opcode::Load, "x"),
                             access(*M, "join", Opcode::Store, "x")));
  EXPECT_TRUE(Cuts.warIsCut(access(*M, "join", Opcode::Load, "y"),
                            access(*M, "join2", Opcode::Store, "y")));
}

TEST(PlacementOracle, WriteInBlockTheReadCannotReach) {
  auto M = parse(R"(global @x : 4 bytes
global @f : 4 bytes

func @main() -> i32 {
entry:
  %c.0 = loadi32 @f
  br %c.0, a, b
a:
  %l.1 = loadi32 @x
  ret %l.1
b:
  storei32 3, @x
  ret %c.0
}
)");
  ASSERT_TRUE(M);
  Coverage Cov = checkAgainstOracle(*M);
  EXPECT_EQ(Cov.Wars, 0u); // The PDG reports no dependence...
  RegionCutSummary Cuts(*M->getFunction("main"));
  // ...and no path from the read reaches the write.
  EXPECT_TRUE(Cuts.warIsCut(access(*M, "a", Opcode::Load, "x"),
                            access(*M, "b", Opcode::Store, "x")));
}

} // namespace
