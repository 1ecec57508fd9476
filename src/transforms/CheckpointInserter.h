//===----------------------------------------------------------------------===//
///
/// \file
/// PDG Checkpoint Inserter (paper Section 3.1.2): breaks every remaining
/// WAR violation by inserting register checkpoints, choosing locations
/// with a greedy minimum hitting set over each violation's set of
/// resolving program points (after de Kruijf et al., cited as [11]).
///
/// The same component also implements the baselines: with conservative
/// aliasing it reproduces Ratchet's over-instrumentation; with the
/// PerWrite strategy it reproduces naive before-every-write placement
/// (used as an ablation of the hitting set).
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_CHECKPOINTINSERTER_H
#define WARIO_TRANSFORMS_CHECKPOINTINSERTER_H

#include "analysis/AliasAnalysis.h"

#include <array>

namespace wario {

class LoopInfo;

/// How checkpoint locations are chosen.
enum class PlacementStrategy {
  HittingSet, ///< Greedy min hitting set, loop-depth-weighted costs.
  PerWrite,   ///< One checkpoint immediately before every WAR write.
};

struct CheckpointInserterOptions {
  AliasPrecision Precision = AliasPrecision::Precise;
  PlacementStrategy Strategy = PlacementStrategy::HittingSet;
  /// How unresolved WARs are handled. Idempotent breaks them with
  /// checkpoints (the placement machinery below). Differential leaves
  /// them unbroken — the runtime's dirty-page journal rolls uncommitted
  /// state back at reboot, so no placement runs at all. Speculative
  /// marks each unresolved WAR write as undo-logged (Instruction::
  /// isSpecLogged) instead of inserting checkpoints.
  CheckpointStrategy Mode = CheckpointStrategy::Idempotent;
  /// Negative-control knob for the speculative mode: when false, WAR
  /// writes are NOT marked for logging, so rollback is provably
  /// incomplete and the fault injector must catch it.
  bool SpecLogWars = true;
  /// Weight candidate locations by 4^loop-depth (ablation knob; the
  /// paper's hitting set costs locations "primarily depending on the
  /// loop depth").
  bool DepthWeightedCost = true;
  /// Negative-control knob for the crash-consistency fault injector
  /// (src/verify/): when false, WARs are detected and counted but the
  /// resolution step is skipped entirely — no breaking checkpoints are
  /// inserted, so the compiled program is deliberately NOT idempotent.
  bool ResolveWars = true;
};

struct CheckpointInserterStats {
  unsigned WarsFound = 0;      ///< WAR violations detected.
  unsigned WarsAlreadyCut = 0; ///< Resolved by existing cuts (calls etc).
  unsigned Inserted = 0;       ///< Checkpoints inserted.
  unsigned StoresMarked = 0;   ///< WAR writes marked !log (speculative).
};

/// Where the region cuts of one function sit (executed checkpoints, and
/// calls, whose callee entry checkpoint fires before any of its stores),
/// summarized once so each WAR query costs O(1):
///  - each instruction's block and position, in vectors indexed by
///    Instruction::getId();
///  - for each instruction, the position of the next cut after it in
///    its block, and for each block, its first cut;
///  - for each block, a bitset of the blocks its successors can enter
///    passing through cut-free blocks only.
/// The summary describes the IR at construction; build a new one after
/// mutating the function.
class RegionCutSummary {
public:
  explicit RegionCutSummary(const Function &F);

  /// Does every execution path from just after \p R to \p W pass a
  /// region cut? Mid-block branching is impossible in this IR, so a
  /// position compare inside R's block composed with block-level entry
  /// sets is exact.
  bool warIsCut(const Instruction *R, const Instruction *W) const;

  /// A half-open range of positions in the function's block-major
  /// instruction order; instructionAt() maps a position back.
  struct PointRange {
    unsigned Begin = 0, End = 0;
  };
  using WarPoints = std::array<PointRange, 2>;

  /// The program points (each "immediately before instruction X") at
  /// which a checkpoint provably resolves the WAR (\p R, \p W), carried
  /// around a back edge when \p Carried: at most two ranges, both in W's
  /// block, the second empty unless the WAR wraps around that block.
  WarPoints resolvingPoints(const Instruction *R, const Instruction *W,
                            bool Carried) const;

  Instruction *instructionAt(unsigned Position) const {
    return Order[Position];
  }

private:
  unsigned blockSize(unsigned B) const {
    return BlockBegin[B + 1] - BlockBegin[B];
  }

  /// All attached instructions, block-major; block b spans
  /// Order[BlockBegin[b], BlockBegin[b + 1]).
  std::vector<Instruction *> Order;
  std::vector<unsigned> BlockBegin;
  std::vector<unsigned> FirstCut;    ///< Per block; blockSize() if none.
  std::vector<unsigned> FirstNonPhi; ///< Per block, position in it.
  /// Per instruction id: block index, position in the block, and the
  /// position of the next cut after it (blockSize() if none).
  std::vector<unsigned> BlockOf, Pos, NextCut;
  size_t Words = 0;            ///< uint64_t words per Enter row.
  std::vector<uint64_t> Enter; ///< Row-major [block][entered block].
};

/// The greedy minimum hitting set over unresolved WARs: WAR i is
/// resolved by any point of \p Wars[i] (a point in both of its ranges
/// counts twice). Each step picks the point resolving the most remaining
/// WARs per unit cost (4^loop-depth when \p DepthWeightedCost, else 1),
/// ties going to the lower instruction id. Returns the picks in order;
/// each is a checkpoint location "before this instruction".
std::vector<Instruction *>
pickHittingSet(const Function &F, const LoopInfo &LI, bool DepthWeightedCost,
               const RegionCutSummary &Cuts,
               const std::vector<RegionCutSummary::WarPoints> &Wars);

/// Inserts middle-end WAR checkpoints into \p F.
CheckpointInserterStats
insertCheckpoints(Function &F, const CheckpointInserterOptions &Opts);

/// Module-wide convenience wrapper.
CheckpointInserterStats
insertCheckpoints(Module &M, const CheckpointInserterOptions &Opts);

} // namespace wario

#endif // WARIO_TRANSFORMS_CHECKPOINTINSERTER_H
