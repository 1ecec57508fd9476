#include "analysis/MemoryDependence.h"

using namespace wario;

CFGReachability::CFGReachability(const Function &F, const LoopInfo &LI) {
  unsigned N = 0;
  for (const BasicBlock *BB : F)
    Index[BB] = N++;
  Words = (N + 63) / 64;
  Full.assign(N * Words, 0);
  Forward.assign(N * Words, 0);

  // Successor indices with their back-edge flags, built once.
  struct Edge {
    unsigned To;
    bool Back;
  };
  std::vector<std::vector<Edge>> Succs(N);
  unsigned B = 0;
  for (const BasicBlock *BB : F) {
    for (const BasicBlock *Succ : BB->successors())
      Succs[B].push_back({Index.at(Succ), LI.isBackEdge(BB, Succ)});
    ++B;
  }

  // BFS from every block; N is small for embedded code.
  std::vector<unsigned> Work;
  for (unsigned S = 0; S != N; ++S) {
    for (int UseBackEdges = 0; UseBackEdges != 2; ++UseBackEdges) {
      uint64_t *Row = (UseBackEdges ? Full : Forward).data() + S * Words;
      Work.assign(1, S);
      while (!Work.empty()) {
        unsigned X = Work.back();
        Work.pop_back();
        for (const Edge &E : Succs[X]) {
          if (!UseBackEdges && E.Back)
            continue;
          uint64_t Bit = uint64_t(1) << (E.To % 64);
          if (Row[E.To / 64] & Bit)
            continue;
          Row[E.To / 64] |= Bit;
          Work.push_back(E.To);
        }
      }
    }
  }
}

MemoryDependence::MemoryDependence(const Function &F, const AliasAnalysis &AA,
                                   const LoopInfo &LI)
    : Reach(F, LI) {
  // Collect memory accesses with their block positions, in program order.
  struct Access {
    Instruction *I;
    unsigned Block; ///< Dense block index (Reach.indexOf(its block)).
    unsigned Pos;
    bool IsLoad; ///< Hoisted out of the O(N^2) pair loop below.
  };
  std::vector<Access> Accesses;
  std::vector<const BasicBlock *> Blocks;
  for (const BasicBlock *BB : F) {
    unsigned Pos = 0;
    for (Instruction *I : *BB) {
      if (I->isMemoryAccess())
        Accesses.push_back({I, unsigned(Blocks.size()), Pos,
                            I->getOpcode() == Opcode::Load});
      ++Pos;
    }
    Blocks.push_back(BB);
  }

  // SharesLoop[x][y]: some loop enclosing block x also contains block y.
  // One bitset per loop, OR-ed along each block's loop-parent chain.
  size_t N = Blocks.size(), Words = (N + 63) / 64;
  std::unordered_map<const Loop *, std::vector<uint64_t>> LoopBits;
  for (const Loop *L : LI.loops()) {
    std::vector<uint64_t> &Bits = LoopBits[L];
    Bits.assign(Words, 0);
    for (const BasicBlock *BB : L->blocks()) {
      unsigned B = Reach.indexOf(BB);
      Bits[B / 64] |= uint64_t(1) << (B % 64);
    }
  }
  std::vector<uint64_t> SharesLoop(N * Words, 0);
  for (size_t B = 0; B != N; ++B)
    for (const Loop *L = LI.getLoopFor(Blocks[B]); L; L = L->getParent())
      for (size_t W = 0; W != Words; ++W)
        SharesLoop[B * Words + W] |= LoopBits.at(L)[W];

  // X can execute and Y follow within the same iteration instance
  // (no back edge on the path).
  auto DirectFollow = [&](const Access &X, const Access &Y) {
    if (X.Block == Y.Block)
      return X.Pos < Y.Pos;
    return Reach.forwardReaches(X.Block, Y.Block);
  };
  // X can execute and Y follow around at least one back edge. Both
  // sitting in any common loop suffices for that to be realizable.
  auto CarriedFollow = [&](const Access &X, const Access &Y) {
    if (X.Block == Y.Block)
      return Reach.onCycle(X.Block);
    if (!Reach.reaches(X.Block, Y.Block))
      return false;
    if (SharesLoop[X.Block * Words + Y.Block / 64] >> (Y.Block % 64) & 1)
      return true;
    return !Reach.forwardReaches(X.Block, Y.Block); // Only via a cycle.
  };

  // A pair can produce *two* dependences: a direct one (same iteration
  // instance: index expressions denote the same values) and a carried one
  // (different iterations: cross-iteration aliasing). Both matter — e.g.
  // `w[t] = f(w[t+3])` has no direct WAR (disjoint within an iteration)
  // but a real carried WAR three iterations later.
  // AA memoizes each address's decomposition, so a verdict here costs
  // a few compares.
  for (const Access &A : Accesses) {
    for (const Access &B : Accesses) {
      if (A.I == B.I)
        continue;
      if (A.IsLoad && B.IsLoad)
        continue;
      DepKind Kind = A.IsLoad   ? DepKind::WAR
                     : B.IsLoad ? DepKind::RAW
                                : DepKind::WAW;
      if (DirectFollow(A, B)) {
        AliasResult AR = AA.alias(A.I, B.I, /*CrossIteration=*/false);
        if (AR != AliasResult::NoAlias)
          Deps.push_back({A.I, B.I, Kind, /*LoopCarried=*/false, AR});
      }
      if (CarriedFollow(A, B)) {
        AliasResult AR = AA.alias(A.I, B.I, /*CrossIteration=*/true);
        if (AR != AliasResult::NoAlias)
          Deps.push_back({A.I, B.I, Kind, /*LoopCarried=*/true, AR});
      }
    }
  }
}

std::vector<const MemDep *> MemoryDependence::wars() const {
  std::vector<const MemDep *> Result;
  for (const MemDep &D : Deps)
    if (D.Kind == DepKind::WAR)
      Result.push_back(&D);
  return Result;
}

std::vector<const MemDep *> MemoryDependence::warsIn(const Loop &L) const {
  std::vector<const MemDep *> Result;
  for (const MemDep &D : Deps)
    if (D.Kind == DepKind::WAR && L.contains(D.Src) && L.contains(D.Dst))
      Result.push_back(&D);
  return Result;
}

std::vector<const MemDep *> MemoryDependence::rawsIn(const Loop &L) const {
  std::vector<const MemDep *> Result;
  for (const MemDep &D : Deps)
    if (D.Kind == DepKind::RAW && L.contains(D.Src) && L.contains(D.Dst))
      Result.push_back(&D);
  return Result;
}
