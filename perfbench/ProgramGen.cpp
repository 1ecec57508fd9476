#include "ProgramGen.h"

#include <algorithm>
#include <vector>

using namespace perfbench;

ProgramShape perfbench::shapeFor(SizeClass C) {
  switch (C) {
  case SizeClass::Tiny:
    return {1, 1, 1, 1, 1};
  case SizeClass::Small:
    return {3, 1, 2, 1, 2};
  case SizeClass::Medium:
    return {5, 2, 2, 2, 3};
  case SizeClass::Large:
    return {10, 3, 3, 3, 4};
  }
  return {};
}

namespace {

/// Caps the iterations of one kernel's loop nest, and so the dynamic work
/// of a program (a kernel calls at most its predecessor).
constexpr unsigned MaxNestIterations = 192;

class Generator {
public:
  Generator(const ProgramShape &S, uint64_t Seed) : Shape(S), R(Seed) {}

  std::string run() {
    for (unsigned I = 0; I != 3; ++I) {
      Scalars.push_back("g" + std::to_string(I));
      line("unsigned int " + Scalars.back() + " = " +
           std::to_string(1 + R.below(4096)) + ";");
    }
    for (unsigned I = 0; I != Shape.Arrays; ++I) {
      Arrays.push_back({"a" + std::to_string(I), 8u << R.below(4)});
      line("unsigned int " + Arrays.back().Name + "[" +
           std::to_string(Arrays.back().Len) + "];");
    }
    line("");
    for (unsigned K = 0; K != Shape.Functions; ++K)
      kernel(K);
    mainFn();
    return Out;
  }

private:
  struct Array {
    std::string Name;
    unsigned Len;
  };

  void line(const std::string &S) {
    Out.append(2 * Indent, ' ');
    Out += S;
    Out += '\n';
  }

  const Array &anyArray() { return Arrays[R.below(unsigned(Arrays.size()))]; }

  /// A scalar readable in the current scope.
  std::string scalar() {
    unsigned Pick = R.below(4);
    if (Pick == 0 && !IVs.empty())
      return IVs[R.below(unsigned(IVs.size()))];
    if (Pick == 1)
      return Scalars[R.below(unsigned(Scalars.size()))];
    if (Pick == 2)
      return std::to_string(R.below(256));
    return R.chance(50) ? "acc" : "x";
  }

  /// An in-bounds index: lengths are powers of two.
  std::string index(const Array &A) {
    return "((" + IVs[R.below(unsigned(IVs.size()))] + " + " + scalar() +
           ") & " + std::to_string(A.Len - 1) + ")";
  }

  /// Every third operand reads an array.
  std::string operand() {
    if (++Operands % 3 == 0) {
      const Array &A = anyArray();
      return A.Name + "[" + index(A) + "]";
    }
    return scalar();
  }

  /// A full binary tree of the given depth: the seed picks the operators
  /// and operands, never the size.
  std::string expr(unsigned Depth) {
    if (Depth == 0)
      return operand();
    std::string A = expr(Depth - 1), B = expr(Depth - 1);
    switch (R.below(9)) {
    case 0: return "(" + A + " + " + B + ")";
    case 1: return "(" + A + " - " + B + ")";
    case 2: return "(" + A + " * " + B + ")";
    case 3: return "(" + A + " ^ " + B + ")";
    case 4: return "(" + A + " | " + B + ")";
    case 5: return "(" + A + " & " + B + ")";
    case 6: return "(" + A + " << " + std::to_string(1 + R.below(7)) + ")";
    case 7: return "(" + A + " >> " + std::to_string(1 + R.below(7)) + ")";
    default: return "(" + A + " / ((" + B + " & 7) + 1))";
    }
  }

  std::string cond() {
    static const char *Rel[] = {"<", ">", "<=", ">=", "==", "!="};
    return "(" + operand() + " " + Rel[R.below(6)] + " " + operand() + ")";
  }

  /// One scalar statement of a loop body; the kinds take turns.
  void statement() {
    static const char *Ops[] = {"=", "+=", "-=", "^=", "|="};
    switch (Statements++ % 3) {
    case 0:
      line("acc " + std::string(Ops[R.below(5)]) + " " + expr(2) + ";");
      break;
    case 1:
      line(Scalars[R.below(unsigned(Scalars.size()))] + " " +
           Ops[R.below(5)] + " " + expr(2) + ";");
      break;
    default:
      line("if " + cond() + " {");
      ++Indent;
      line("acc ^= " + expr(1) + ";");
      --Indent;
      line("} else {");
      ++Indent;
      line(Scalars[R.below(unsigned(Scalars.size()))] + " += " + expr(1) +
           ";");
      --Indent;
      line("}");
    }
  }

  /// The innermost body: array stores, a read of the stored arrays (so
  /// the loop carries write-after-read dependences), scalar statements.
  void body() {
    for (unsigned S = 0; S != Shape.StoresPerLoop; ++S) {
      const Array &A = anyArray();
      line(A.Name + "[" + index(A) + "] " + (S % 2 ? "+=" : "=") + " " +
           expr(2) + ";");
    }
    const Array &A = anyArray();
    line("acc = acc * 31 + " + A.Name + "[" + index(A) + "];");
    for (unsigned S = 0; S != Shape.ExtraStmts; ++S)
      statement();
  }

  void loopNest(unsigned K, unsigned Level, unsigned Budget) {
    if (Level == Shape.LoopDepth) {
      body();
      return;
    }
    unsigned Levels = Shape.LoopDepth - Level;
    unsigned Trip = 2;
    while (Trip < 16 && power(Trip * 2, Levels) <= Budget)
      Trip *= 2;
    std::string IV = "i" + std::to_string(K) + "_" + std::to_string(Level);
    line("for (int " + IV + " = 0; " + IV + " < " + std::to_string(Trip) +
         "; " + IV + "++) {");
    ++Indent;
    IVs.push_back(IV);
    loopNest(K, Level + 1, std::max(1u, Budget / Trip));
    if (Level + 1 < Shape.LoopDepth)
      statement();
    IVs.pop_back();
    --Indent;
    line("}");
  }

  static unsigned power(unsigned B, unsigned E) {
    unsigned P = 1;
    while (E--)
      P *= B;
    return P;
  }

  void kernel(unsigned K) {
    line("unsigned int k" + std::to_string(K) + "(unsigned int x) {");
    ++Indent;
    line("unsigned int acc = x + " + std::to_string(R.below(1000)) + ";");
    if (K % 2) // Odd kernels call their predecessor: calls stay shallow.
      line("acc ^= k" + std::to_string(K - 1) + "(acc & 1023);");
    loopNest(K, 0, MaxNestIterations);
    line("return acc ^ " + Scalars[R.below(unsigned(Scalars.size()))] + ";");
    --Indent;
    line("}");
    line("");
  }

  void mainFn() {
    line("int main(void) {");
    ++Indent;
    line("unsigned int h = " + std::to_string(R.below(100000)) + ";");
    for (const Array &A : Arrays) {
      line("for (int i = 0; i < " + std::to_string(A.Len) + "; i++)");
      line("  " + A.Name + "[i] = (i * " + std::to_string(1 + R.below(97)) +
           " + " + std::to_string(R.below(1000)) + ") & 65535;");
    }
    for (unsigned K = 0; K != Shape.Functions; ++K) {
      line("h = h * 17 + k" + std::to_string(K) + "(h & 1023);");
      if (K % 2)
        line("__out(h & 65535);");
    }
    for (const Array &A : Arrays) {
      line("for (int i = 0; i < " + std::to_string(A.Len) + "; i++)");
      line("  h = h * 31 + " + A.Name + "[i];");
    }
    for (const std::string &G : Scalars)
      line("h = h * 31 + " + G + ";");
    line("__out(h & 65535);");
    line("return (int)(h & 2147483647);");
    --Indent;
    line("}");
  }

  const ProgramShape Shape;
  Rng R;
  std::string Out;
  unsigned Indent = 0;
  std::vector<std::string> Scalars;
  std::vector<Array> Arrays;
  std::vector<std::string> IVs; ///< Induction variables in scope.
  unsigned Operands = 0, Statements = 0;
};

} // namespace

std::string perfbench::generateProgram(const ProgramShape &Shape,
                                       uint64_t Seed) {
  return Generator(Shape, Seed).run();
}
