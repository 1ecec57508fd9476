#include "transforms/CheckpointInserter.h"

#include "analysis/MemoryDependence.h"
#include "ir/IRBuilder.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace wario;

namespace {

/// True for instructions that end an idempotent region: an executed
/// checkpoint, or a call (the callee's entry checkpoint fires before any
/// of its stores).
bool isRegionCut(const Instruction *I) {
  return I->getOpcode() == Opcode::Checkpoint ||
         I->getOpcode() == Opcode::Call;
}

} // namespace

RegionCutSummary::RegionCutSummary(const Function &F) {
  unsigned NumIds = F.nextInstId();
  BlockOf.assign(NumIds, 0);
  Pos.assign(NumIds, 0);
  NextCut.assign(NumIds, 0);

  std::unordered_map<const BasicBlock *, unsigned> Index;
  unsigned N = 0;
  for (const BasicBlock *BB : F) {
    Index[BB] = N;
    BlockBegin.push_back(unsigned(Order.size()));
    unsigned P = 0;
    for (Instruction *I : *BB) {
      assert(I->getId() < NumIds && "instruction ids must be dense");
      BlockOf[I->getId()] = N;
      Pos[I->getId()] = P++;
      Order.push_back(I);
    }
    ++N;
  }
  BlockBegin.push_back(unsigned(Order.size()));

  // Next cut after each instruction, by a reverse scan of each block.
  // Phis are grouped at the block head (a Verifier invariant), so the
  // non-phi points of a block form one suffix of it.
  FirstCut.assign(N, 0);
  FirstNonPhi.assign(N, 0);
  for (unsigned B = 0; B != N; ++B) {
    unsigned Next = blockSize(B);
    unsigned NonPhi = 0;
    for (unsigned P = blockSize(B); P-- > 0;) {
      const Instruction *I = Order[BlockBegin[B] + P];
      NextCut[I->getId()] = Next;
      if (isRegionCut(I))
        Next = P;
      if (I->getOpcode() == Opcode::Phi) {
        if (NonPhi == 0)
          NonPhi = P + 1;
      } else {
        assert(NonPhi == 0 && "phis must be grouped at the block head");
      }
    }
    FirstCut[B] = Next;
    FirstNonPhi[B] = NonPhi;
  }

  // Enter[b] = the union over successors s of b of {s}, plus Enter[s]
  // when s is cut-free (execution falls through s). Iterated to a
  // fixpoint; visiting blocks in reverse order settles acyclic regions
  // in one pass.
  Words = (N + 63) / 64;
  Enter.assign(N * Words, 0);
  std::vector<std::vector<unsigned>> Succs(N);
  for (const BasicBlock *BB : F) {
    unsigned From = Index.at(BB);
    for (const BasicBlock *S : BB->successors()) {
      unsigned To = Index.at(S);
      Succs[From].push_back(To);
      Enter[From * Words + To / 64] |= uint64_t(1) << (To % 64);
    }
  }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned B = N; B-- > 0;) {
      uint64_t *Row = Enter.data() + B * Words;
      for (unsigned S : Succs[B]) {
        if (FirstCut[S] != blockSize(S))
          continue; // Blocked inside S: nothing past it is entered.
        const uint64_t *SRow = Enter.data() + S * Words;
        for (size_t W = 0; W != Words; ++W) {
          uint64_t Merged = Row[W] | SRow[W];
          if (Merged != Row[W]) {
            Row[W] = Merged;
            Changed = true;
          }
        }
      }
    }
  }
}

bool RegionCutSummary::warIsCut(const Instruction *R,
                                const Instruction *W) const {
  unsigned RB = BlockOf[R->getId()], WB = BlockOf[W->getId()];
  unsigned RPos = Pos[R->getId()], WPos = Pos[W->getId()];
  unsigned Cut = NextCut[R->getId()];
  if (RB == WB && RPos < WPos)
    return Cut < WPos; // Straight-line: a cut between R and W.
  if (Cut != blockSize(RB))
    return true; // Every path leaves R's block through a cut.
  // Execution falls out of R's block; W is reached iff its block is
  // entered without passing a cut and W precedes that block's first cut.
  bool Entered = Enter[RB * Words + WB / 64] >> (WB % 64) & 1;
  return !(Entered && WPos < FirstCut[WB]);
}

/// Every returned point lies on all R->W paths. Blocks are only entered
/// at their head and only left at their terminator, so:
///  - when R and W share a block with R first, any point in (R, W] works
///    for both the fall-through and any wrap-around path;
///  - when they share a block with W first (loop-carried), any point
///    after R (the block cannot be left early) and any point from the
///    block head to W (every re-entry passes it) works;
///  - when R is in a different block, every R->W path finishes with a
///    head-of-block(W) -> W segment, so every point up to W in W's block
///    qualifies. This is what lets one checkpoint resolve a whole cluster
///    of writes parked at a loop latch.
/// Phis are never points; R and W are not phis, so only ranges starting
/// at the block head need to skip them.
RegionCutSummary::WarPoints
RegionCutSummary::resolvingPoints(const Instruction *R, const Instruction *W,
                                  bool Carried) const {
  unsigned RB = BlockOf[R->getId()], WB = BlockOf[W->getId()];
  unsigned Base = BlockBegin[WB];
  unsigned Head = Base + FirstNonPhi[WB];
  unsigned WEnd = Base + Pos[W->getId()] + 1; // Just past W.
  if (RB != WB)
    return {{{Head, WEnd}, {}}};
  unsigned RNext = Base + Pos[R->getId()] + 1; // Just past R.
  // The direct fall-through instance: any point in (R, W].
  if (RNext <= WEnd && !Carried)
    return {{{RNext, WEnd}, {}}};
  // Wrap-around instance (either order): the path leaves the block past
  // R and re-enters at its head before W. Known quirk (DESIGN.md section
  // 5): with R first, the ranges overlap on (R, W], so those points list
  // this WAR twice and the hitting set scores it twice there. The
  // goldens depend on it.
  return {{{RNext, BlockBegin[WB + 1]}, {Head, WEnd}}};
}

std::vector<Instruction *>
wario::pickHittingSet(const Function &F, const LoopInfo &LI,
                      bool DepthWeightedCost, const RegionCutSummary &Cuts,
                      const std::vector<RegionCutSummary::WarPoints> &Wars) {
  unsigned NumWars = unsigned(Wars.size());
  unsigned NumIds = F.nextInstId();
  auto ForEachPoint = [&](unsigned Idx, auto &&Fn) {
    for (const RegionCutSummary::PointRange &PR : Wars[Idx])
      for (unsigned P = PR.Begin; P < PR.End; ++P)
        Fn(Cuts.instructionAt(P));
  };

  // Live[id]: point occurrences of unresolved WARs at that instruction;
  // Covers[CoverBegin[id], CoverBegin[id + 1]) lists those WARs.
  std::vector<unsigned> Live(NumIds, 0);
  std::vector<Instruction *> InstById(NumIds, nullptr);
  for (unsigned Idx = 0; Idx != NumWars; ++Idx)
    ForEachPoint(Idx, [&](Instruction *P) {
      ++Live[P->getId()];
      InstById[P->getId()] = P;
    });
  std::vector<unsigned> CoverBegin(NumIds + 1, 0);
  for (unsigned Id = 0; Id != NumIds; ++Id)
    CoverBegin[Id + 1] = CoverBegin[Id] + Live[Id];
  std::vector<unsigned> Covers(CoverBegin.back());
  std::vector<unsigned> Fill(CoverBegin.begin(), CoverBegin.end() - 1);
  for (unsigned Idx = 0; Idx != NumWars; ++Idx)
    ForEachPoint(Idx,
                 [&](Instruction *P) { Covers[Fill[P->getId()]++] = Idx; });

  // Cost grows with loop depth so the greedy choice prefers resolving
  // many WARs with one checkpoint outside hot loops when possible.
  std::vector<double> Cost(NumIds, 1.0);
  if (DepthWeightedCost)
    for (unsigned Id = 0; Id != NumIds; ++Id)
      if (InstById[Id]) {
        unsigned Depth =
            std::min(LI.getLoopDepth(InstById[Id]->getParent()), 8u);
        for (unsigned I = 0; I != Depth; ++I)
          Cost[Id] *= 4.0;
      }
  auto ScoreOf = [&](unsigned Id) { return double(Live[Id]) / Cost[Id]; };

  // Lazy max-heap: live counts only ever fall, so a popped entry whose
  // stored score is still current beats every other point's current
  // score. Stale entries are re-scored and pushed back. Equal scores go
  // to the lower id, as a scan in id order would pick.
  struct Entry {
    double Score;
    unsigned Id;
  };
  auto Lower = [](const Entry &A, const Entry &B) {
    return A.Score < B.Score || (A.Score == B.Score && A.Id > B.Id);
  };
  std::vector<Entry> Heap;
  for (unsigned Id = 0; Id != NumIds; ++Id)
    if (Live[Id])
      Heap.push_back({ScoreOf(Id), Id});
  std::make_heap(Heap.begin(), Heap.end(), Lower);

  std::vector<bool> Resolved(NumWars, false);
  unsigned Remaining = NumWars;
  std::vector<Instruction *> Picks;
  while (Remaining != 0) {
    assert(!Heap.empty() && "hitting set failed to cover remaining WARs");
    std::pop_heap(Heap.begin(), Heap.end(), Lower);
    Entry Top = Heap.back();
    Heap.pop_back();
    if (Live[Top.Id] == 0)
      continue;
    double Score = ScoreOf(Top.Id);
    if (Score != Top.Score) {
      Heap.push_back({Score, Top.Id});
      std::push_heap(Heap.begin(), Heap.end(), Lower);
      continue;
    }
    Picks.push_back(InstById[Top.Id]);
    for (unsigned C = CoverBegin[Top.Id]; C != CoverBegin[Top.Id + 1]; ++C) {
      unsigned Idx = Covers[C];
      if (Resolved[Idx])
        continue;
      Resolved[Idx] = true;
      --Remaining;
      ForEachPoint(Idx, [&](Instruction *P) { --Live[P->getId()]; });
    }
  }
  return Picks;
}

CheckpointInserterStats
wario::insertCheckpoints(Function &F, const CheckpointInserterOptions &Opts) {
  CheckpointInserterStats Stats;
  if (F.isDeclaration())
    return Stats;

  AliasAnalysis AA(Opts.Precision);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  MemoryDependence MD(F, AA, LI);

  std::vector<const MemDep *> Wars = MD.wars();
  Stats.WarsFound = unsigned(Wars.size());
  if (Wars.empty())
    return Stats;
  RegionCutSummary Cuts(F);

  struct War {
    Instruction *R;
    Instruction *W;
    bool Carried;
  };
  std::vector<War> Unresolved;
  for (const MemDep *D : Wars) {
    if (Cuts.warIsCut(D->Src, D->Dst)) {
      ++Stats.WarsAlreadyCut;
      continue;
    }
    Unresolved.push_back({D->Src, D->Dst, D->LoopCarried});
  }
  if (Unresolved.empty())
    return Stats;
  if (Opts.Mode == CheckpointStrategy::Differential)
    return Stats; // Reboot rolls the dirty-page journal back past every
                  // uncommitted write, so unbroken WARs are harmless.
  if (Opts.Mode == CheckpointStrategy::Speculative) {
    // Speculative execution past the hazard: mark each WAR-completing
    // store for the emulator's word-granular undo log instead of
    // cutting the region.
    if (!Opts.SpecLogWars)
      return Stats; // Negative control: speculate without logging.
    std::unordered_set<Instruction *> Marked;
    for (const War &V : Unresolved)
      if (Marked.insert(V.W).second) {
        assert(V.W->getOpcode() == Opcode::Store &&
               "WAR writer must be a store");
        V.W->setSpecLogged(true);
        ++Stats.StoresMarked;
      }
    return Stats;
  }
  if (!Opts.ResolveWars)
    return Stats;

  IRBuilder IRB(F.getParent());
  auto InsertBefore = [&](Instruction *X) {
    IRB.setInsertPoint(X);
    Instruction *C = IRB.createCheckpoint();
    C->setCheckpointCause(CheckpointCause::MiddleEndWar);
    ++Stats.Inserted;
  };

  if (Opts.Strategy == PlacementStrategy::PerWrite) {
    std::unordered_set<Instruction *> Done;
    for (const War &V : Unresolved)
      if (Done.insert(V.W).second)
        InsertBefore(V.W);
    return Stats;
  }

  // Greedy minimum hitting set over each WAR's resolving points.
  std::vector<RegionCutSummary::WarPoints> Points;
  Points.reserve(Unresolved.size());
  for (const War &V : Unresolved)
    Points.push_back(Cuts.resolvingPoints(V.R, V.W, V.Carried));
  for (Instruction *P :
       pickHittingSet(F, LI, Opts.DepthWeightedCost, Cuts, Points))
    InsertBefore(P);
  return Stats;
}

CheckpointInserterStats
wario::insertCheckpoints(Module &M, const CheckpointInserterOptions &Opts) {
  CheckpointInserterStats Total;
  for (auto &F : M.functions()) {
    CheckpointInserterStats S = insertCheckpoints(*F, Opts);
    Total.WarsFound += S.WarsFound;
    Total.WarsAlreadyCut += S.WarsAlreadyCut;
    Total.Inserted += S.Inserted;
    Total.StoresMarked += S.StoresMarked;
  }
  return Total;
}
