//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generator of the benchmark's synthetic C-subset programs. It is
/// the benchmark's own, independent of the test suite's generator, so the
/// benchmark's inputs change only when this file does.
///
/// Every program is well defined (constant-trip loops, masked array
/// indices, guarded division, no recursion), so the reference interpreter,
/// every compiled configuration and every power schedule must agree on
/// its result. The shape fixes the program's structure and trip counts;
/// the seed picks operators, operands and constants, so compile cost
/// barely moves with the seed. Dynamic work is capped per function so
/// interpretation and emulation stay cheap next to compilation.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_PERFBENCH_PROGRAMGEN_H
#define WARIO_PERFBENCH_PROGRAMGEN_H

#include <cstdint>
#include <string>

namespace perfbench {

/// The static shape of a generated program: what compile time and the
/// middle end's work scale with.
struct ProgramShape {
  unsigned Functions = 1;     ///< Kernel functions besides main.
  unsigned LoopDepth = 1;     ///< Loop-nest depth inside each kernel.
  unsigned Arrays = 1;        ///< Global arrays.
  unsigned StoresPerLoop = 1; ///< Array stores in each innermost body.
  unsigned ExtraStmts = 1;    ///< Scalar statements per loop body.
};

/// Size classes from a few-line kernel up to picojpeg scale.
enum class SizeClass { Tiny, Small, Medium, Large };

/// The shape of a size class. It is fixed, so the seed varies a program's
/// contents but not how much work compiling it is.
ProgramShape shapeFor(SizeClass C);

/// Generates the C source of one program; equal arguments give equal
/// text.
std::string generateProgram(const ProgramShape &Shape, uint64_t Seed);

/// A small deterministic generator (splitmix64) for every seeded choice
/// the benchmark makes.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return N ? unsigned(next() % N) : 0; }
  bool chance(unsigned Pct) { return below(100) < Pct; }

private:
  uint64_t State;
};

} // namespace perfbench

#endif // WARIO_PERFBENCH_PROGRAMGEN_H
