//===----------------------------------------------------------------------===//
///
/// \file
/// Memory dependence analysis: the slice of a Program Dependence Graph the
/// WARio passes consume. For every ordered pair of load/store instructions
/// that can execute one after the other and may touch the same address, it
/// records a WAR, RAW or WAW dependence, flagged as loop-carried when the
/// later access is only reachable around a back edge.
///
/// Cross-function effects need no modeling here: every function entry and
/// exit carries a forced checkpoint (as in Ratchet), so no idempotent
/// region ever spans a call boundary.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_ANALYSIS_MEMORYDEPENDENCE_H
#define WARIO_ANALYSIS_MEMORYDEPENDENCE_H

#include "analysis/AliasAnalysis.h"
#include "analysis/LoopInfo.h"

namespace wario {

enum class DepKind { WAR, RAW, WAW };

/// One memory dependence: Src can execute before Dst and the accesses may
/// overlap.
struct MemDep {
  Instruction *Src;
  Instruction *Dst;
  DepKind Kind;
  /// True when Dst is reachable from Src only via a loop back edge.
  bool LoopCarried;
  AliasResult Alias;
};

/// Block-level reachability over a function CFG, with and without back
/// edges. Built once per function: one BFS per block over successor
/// index lists, into uint64_t bitset rows (O(blocks^2) bits). Queries
/// take dense block indices (function block order) or block pointers.
class CFGReachability {
public:
  CFGReachability(const Function &F, const LoopInfo &LI);

  /// Dense index of \p BB: its position in the function's block list.
  unsigned indexOf(const BasicBlock *BB) const { return Index.at(BB); }

  /// True if a path with at least one edge leads from block \p From to
  /// block \p To.
  bool reaches(unsigned From, unsigned To) const {
    return test(Full, From, To);
  }
  /// Same, but using no loop back edges.
  bool forwardReaches(unsigned From, unsigned To) const {
    return test(Forward, From, To);
  }
  /// True if block \p B lies on a cycle.
  bool onCycle(unsigned B) const { return reaches(B, B); }

  bool reaches(const BasicBlock *From, const BasicBlock *To) const {
    return reaches(indexOf(From), indexOf(To));
  }
  bool forwardReaches(const BasicBlock *From, const BasicBlock *To) const {
    return forwardReaches(indexOf(From), indexOf(To));
  }
  bool onCycle(const BasicBlock *BB) const { return onCycle(indexOf(BB)); }

private:
  bool test(const std::vector<uint64_t> &Rows, unsigned From,
            unsigned To) const {
    return Rows[size_t(From) * Words + To / 64] >> (To % 64) & 1;
  }

  std::unordered_map<const BasicBlock *, unsigned> Index;
  size_t Words = 0;               // uint64_t words per row.
  std::vector<uint64_t> Full;    // Row-major [from][to] bitsets.
  std::vector<uint64_t> Forward; // Same, back edges excluded.
};

/// Computes all memory dependences of a function.
class MemoryDependence {
public:
  MemoryDependence(const Function &F, const AliasAnalysis &AA,
                   const LoopInfo &LI);

  const std::vector<MemDep> &deps() const { return Deps; }

  /// All WAR dependences (Src = the read, Dst = the write).
  std::vector<const MemDep *> wars() const;

  /// WAR dependences entirely inside loop \p L.
  std::vector<const MemDep *> warsIn(const Loop &L) const;

  /// RAW dependences entirely inside loop \p L (Src = write, Dst = read).
  std::vector<const MemDep *> rawsIn(const Loop &L) const;

  const CFGReachability &reachability() const { return Reach; }

private:
  CFGReachability Reach;
  std::vector<MemDep> Deps;
};

} // namespace wario

#endif // WARIO_ANALYSIS_MEMORYDEPENDENCE_H
