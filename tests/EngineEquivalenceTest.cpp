//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests for the two execution engines (label: `engine`):
/// the direct-threaded fused-dispatch engine (ThreadedEngine.cpp) must
/// be byte-identical — field-wise EmulatorResult operator==, including
/// the final NVM image, output, event traces, and every counter — to
/// the central-switch interpreter (the oracle) for every workload under
/// continuous power, crash schedules, harvester traces, and interrupts.
/// Also covers the WARIO_ENGINE environment kill switch (unset resolves
/// to threaded), mixed-engine snapshot record/replay in both
/// directions, the 16-bit SWAR WAR-stamp epoch wrap at 2^15, and crash
/// campaign dispatch statistics that must not depend on the worker
/// count.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "emu/PowerTrace.h"
#include "emu/Snapshot.h"
#include "emu/ThreadedEngine.h"
#include "frontend/Frontend.h"
#include "verify/FaultInjector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace wario;

namespace {

MModule buildWorkload(const std::string &Name) {
  DiagnosticEngine Diags;
  auto M = buildWorkloadIR(getWorkload(Name), Diags);
  EXPECT_TRUE(M) << Name << ": " << Diags.formatAll();
  if (!M)
    return MModule{};
  PipelineOptions PO; // WarioComplete, paper defaults.
  return compile(*M, PO);
}

/// WARIO_CI_FAST=1 trims the matrix to one workload (the CI
/// differential-engine job's fast mode; see tools/ci.sh).
std::vector<Workload> matrixWorkloads() {
  if (const char *F = std::getenv("WARIO_CI_FAST"))
    if (F[0] == '1')
      return {getWorkload("crc")};
  return allWorkloads();
}

/// Runs the module under both engines and requires field-wise
/// identical results. Returns the oracle result for further checks.
EmulatorResult expectEngineIdentical(const Emulator &E,
                                     const EmulatorOptions &Base,
                                     const std::string &Tag) {
  EmulatorOptions Interp = Base, Threaded = Base;
  Interp.Engine = EngineKind::Interp;
  Threaded.Engine = EngineKind::Threaded;
  EngineStats IS, TS;
  EmulatorResult RI = E.run(Interp, "main", nullptr, &IS);
  EmulatorResult RT = E.run(Threaded, "main", nullptr, &TS);
  EXPECT_TRUE(RI == RT) << Tag;
  // The interpreter never dispatches through the threaded loop; the
  // threaded engine must actually have used it (or the test proves
  // nothing about equivalence).
  EXPECT_EQ(IS.Dispatches, 0u) << Tag;
  EXPECT_GT(TS.Dispatches, 0u) << Tag;
  EXPECT_LE(TS.ThreadedInstructions, RT.InstructionsExecuted) << Tag;
  return RI;
}

} // namespace

/// Continuous power, with region sizes and the event trace collected:
/// the widest observable surface (Commits, StoreCycles, RegionSizes).
TEST(EngineEquivalenceTest, ContinuousRunsAreByteIdentical) {
  for (const Workload &W : matrixWorkloads()) {
    MModule MM = buildWorkload(W.Name);
    ASSERT_FALSE(MM.Functions.empty()) << W.Name;
    Emulator E(MM);
    EmulatorOptions EO;
    EO.CollectEventTrace = true;
    EmulatorResult R = expectEngineIdentical(E, EO, W.Name);
    EXPECT_TRUE(R.Ok) << W.Name << ": " << R.Error;
  }
}

/// Intermittent power: fixed on-periods (every boot replays a region
/// prefix) and the bursty harvester trace, at several budgets so the
/// failure points land in different regions.
TEST(EngineEquivalenceTest, IntermittentRunsAreByteIdentical) {
  for (const Workload &W : matrixWorkloads()) {
    MModule MM = buildWorkload(W.Name);
    ASSERT_FALSE(MM.Functions.empty()) << W.Name;
    Emulator E(MM);
    for (uint64_t Budget : {7'000ull, 50'000ull, 333'333ull}) {
      EmulatorOptions EO;
      EO.Power = PowerSchedule::fixed(Budget);
      EmulatorResult R = expectEngineIdentical(
          E, EO, W.Name + " @ fixed " + std::to_string(Budget));
      // The smallest budget legitimately stalls the large-region
      // workloads (no forward progress); both engines must still agree
      // on the failure, so only the successful runs assert Ok.
      if (R.Ok)
        EXPECT_GT(R.PowerFailures, 0u) << W.Name;
    }
    EmulatorOptions EO;
    EO.Power = harvesterTraceAlpha();
    expectEngineIdentical(E, EO, W.Name + " @ harvester");
  }
}

/// Periodic interrupts exercise hardware stacking, the ISR path, and
/// commit-on-interrupt — all interpreter-assisted on the threaded
/// engine, so the cycle accounting must line up exactly.
TEST(EngineEquivalenceTest, InterruptRunsAreByteIdentical) {
  for (const Workload &W : matrixWorkloads()) {
    MModule MM = buildWorkload(W.Name);
    ASSERT_FALSE(MM.Functions.empty()) << W.Name;
    Emulator E(MM);
    EmulatorOptions EO;
    EO.InterruptPeriod = 10'000;
    EmulatorResult R = expectEngineIdentical(E, EO, W.Name);
    EXPECT_TRUE(R.Ok) << W.Name << ": " << R.Error;
    EXPECT_GT(R.InterruptsTaken, 0u) << W.Name;
  }
}

/// The WARIO_ENGINE kill switch: with Engine = Auto, "interp" must
/// force the oracle (zero threaded dispatches); "threaded", unset, and
/// any unknown value (such as "trace") select the threaded engine.
/// Results must not depend on the choice, and an explicit
/// EmulatorOptions::Engine beats the environment.
TEST(EngineEquivalenceTest, EnvKillSwitchSelectsEngine) {
  MModule MM = buildWorkload("crc");
  ASSERT_FALSE(MM.Functions.empty());
  Emulator E(MM);
  EmulatorOptions EO; // Engine = Auto.

  ASSERT_EQ(setenv("WARIO_ENGINE", "interp", 1), 0);
  EXPECT_EQ(resolveEngine(EngineKind::Auto), EngineKind::Interp);
  EngineStats KillStats;
  EmulatorResult Killed = E.run(EO, "main", nullptr, &KillStats);
  EXPECT_EQ(KillStats.Dispatches, 0u)
      << "WARIO_ENGINE=interp must disable threaded dispatch";

  ASSERT_EQ(setenv("WARIO_ENGINE", "threaded", 1), 0);
  EXPECT_EQ(resolveEngine(EngineKind::Auto), EngineKind::Threaded);
  EngineStats ThrStats;
  EmulatorResult Threaded = E.run(EO, "main", nullptr, &ThrStats);
  EXPECT_GT(ThrStats.Dispatches, 0u);

  ASSERT_EQ(setenv("WARIO_ENGINE", "trace", 1), 0);
  EXPECT_EQ(resolveEngine(EngineKind::Auto), EngineKind::Threaded)
      << "an unknown WARIO_ENGINE value must fall back to threaded";
  EngineStats UnkStats;
  EmulatorResult Unknown = E.run(EO, "main", nullptr, &UnkStats);
  EXPECT_EQ(UnkStats.Dispatches, ThrStats.Dispatches);

  ASSERT_EQ(unsetenv("WARIO_ENGINE"), 0);
  EXPECT_EQ(resolveEngine(EngineKind::Auto), EngineKind::Threaded)
      << "unset must default to the threaded engine";
  EngineStats DefStats;
  EmulatorResult Default = E.run(EO, "main", nullptr, &DefStats);
  EXPECT_EQ(DefStats.Dispatches, ThrStats.Dispatches);

  EXPECT_TRUE(Killed == Threaded);
  EXPECT_TRUE(Killed == Unknown);
  EXPECT_TRUE(Killed == Default);

  // An explicit option wins over the environment.
  ASSERT_EQ(setenv("WARIO_ENGINE", "interp", 1), 0);
  EmulatorOptions Explicit;
  Explicit.Engine = EngineKind::Threaded;
  EngineStats ExplStats;
  EmulatorResult Expl = E.run(Explicit, "main", nullptr, &ExplStats);
  EXPECT_GT(ExplStats.Dispatches, 0u) << "explicit Threaded beats env";
  EXPECT_TRUE(Expl == Killed);
  ASSERT_EQ(unsetenv("WARIO_ENGINE"), 0);
}

/// Mixed-engine snapshot resume: a chain recorded under either engine
/// must replay under the other (chain compatibility is deliberately
/// engine-blind), byte-identical to a cold run of the replaying engine.
TEST(EngineEquivalenceTest, MixedEngineSnapshotResume) {
  MModule MM = buildWorkload("crc");
  ASSERT_FALSE(MM.Functions.empty());
  Emulator E(MM);
  EmulatorOptions Base;
  Base.CollectRegionSizes = false;

  constexpr EngineKind Engines[] = {EngineKind::Interp, EngineKind::Threaded};
  for (EngineKind RecEngine : Engines) {
    EmulatorOptions RecEO = Base;
    RecEO.Engine = RecEngine;
    SnapshotChain Chain;
    EmulatorResult Golden = E.record(RecEO, SnapshotSchedule{}, Chain);
    ASSERT_TRUE(Golden.Ok) << Golden.Error;
    ASSERT_TRUE(Chain.valid());

    for (EngineKind Other : Engines) {
      if (Other == RecEngine)
        continue;
      for (uint64_t C : {Golden.TotalCycles / 3, 2 * Golden.TotalCycles / 3}) {
        EmulatorOptions EO = Base;
        EO.Engine = Other;
        EO.Power = PowerSchedule::trace({C, UINT64_MAX}, "single-crash");
        EmulatorResult Cold = E.run(EO);
        ReplayPlan Plan;
        Plan.Chain = &Chain;
        EmulatorScratch Scratch;
        ReplayOutcome Out;
        EmulatorResult Warm = E.replay(EO, Plan, "main", &Scratch, &Out);
        EXPECT_TRUE(Warm == Cold)
            << "recorded " << engineName(RecEngine) << ", replayed "
            << engineName(Other) << " @ crash " << C;
        EXPECT_TRUE(Out.Resumed)
            << "engine mismatch must not force a cold fallback";
      }
    }
  }
}

/// The WAR stamps pack (epoch << 1) | kind into 16 bits, so the region
/// epoch wraps at 2^15: the wrap clears the whole stamp array (stale
/// high-epoch entries would otherwise alias fresh small epochs) and
/// restarts at 1. Driving 32k regions organically is minutes of wall
/// time, so the test reuses the documented scratch contract instead: a
/// warm-up run primes Access with live stamps, then the epoch is seeded
/// just below the wrap so the next run crosses it mid-workload. Both
/// engines must produce a result byte-identical to their own
/// fresh-scratch run.
TEST(EngineEquivalenceTest, EpochWrapStaysByteIdentical) {
  MModule MM = buildWorkload("crc");
  ASSERT_FALSE(MM.Functions.empty());
  Emulator E(MM);

  for (EngineKind K : {EngineKind::Interp, EngineKind::Threaded}) {
    EmulatorOptions EO;
    EO.Engine = K;
    EmulatorResult Fresh = E.run(EO);
    ASSERT_TRUE(Fresh.Ok) << engineName(K) << ": " << Fresh.Error;

    EmulatorScratch Scr;
    EmulatorResult Prime = E.run(EO, "main", &Scr);
    ASSERT_TRUE(Prime.Ok) << engineName(K) << ": " << Prime.Error;
    ASSERT_GT(Scr.Epoch, 0u);

    const uint32_t Seed = 0x8000u - 8;
    ASSERT_GT(Fresh.CheckpointsExecuted, 8u)
        << "workload too short to cross the wrap";
    Scr.Epoch = Seed;
    EmulatorResult Wrapped = E.run(EO, "main", &Scr);
    EXPECT_TRUE(Wrapped == Fresh) << engineName(K) << " across epoch wrap";
    // The run really crossed 2^15: the counter restarted at 1 and
    // advanced one epoch per region executed after the wrap.
    EXPECT_LT(Scr.Epoch, Seed) << engineName(K);
    EXPECT_GE(Scr.Epoch, 1u) << engineName(K);
  }
}

/// A crash campaign's dispatch statistics describe the work, not how it
/// was scheduled: the same campaign fanned out over one worker or two
/// must report field-wise equal EngineStats. Per-worker scratch state
/// that leaked into dispatch decisions (engine state carried from one
/// run to the next on the same thread) would make them differ.
TEST(EngineEquivalenceTest, CampaignStatsIndependentOfJobs) {
  using namespace wario::verify;
  const std::vector<CampaignMode> Modes{CampaignMode::RegionBoundaries,
                                        CampaignMode::Stratified,
                                        CampaignMode::Adversarial};
  for (const char *Name : {"coremark", "crc"}) {
    MModule MM = buildWorkload(Name);
    ASSERT_FALSE(MM.Functions.empty()) << Name;
    FaultInjectorOptions FI;
    FI.Samples = 16;
    FI.MaxPoints = 128;
    FI.BaseEO.CollectRegionSizes = false;
    // Pinned to the one fast engine: the interpreter's stats are all
    // zero, so the test must not follow WARIO_ENGINE.
    FI.BaseEO.Engine = EngineKind::Threaded;
    FI.Workload = Name;
    FI.Config = "wario";
    FI.Jobs = 1;
    std::vector<CrashReport> One = runCrashCampaigns(MM, FI, Modes);
    FI.Jobs = 2;
    std::vector<CrashReport> Two = runCrashCampaigns(MM, FI, Modes);
    ASSERT_EQ(One.size(), Two.size()) << Name;
    for (size_t I = 0; I != One.size(); ++I) {
      const std::string Tag = std::string(Name) + "/" + One[I].Mode;
      ASSERT_TRUE(One[I].Ok) << Tag << ": " << One[I].Error;
      EXPECT_EQ(One[I].format(), Two[I].format()) << Tag;
      EXPECT_EQ(One[I].Engine, Two[I].Engine) << Tag;
      const EngineStats &A = One[I].Dispatch, &B = Two[I].Dispatch;
      EXPECT_GT(A.Dispatches, 0u) << Tag;
      EXPECT_EQ(A.Dispatches, B.Dispatches) << Tag;
      EXPECT_EQ(A.FusedDispatches, B.FusedDispatches) << Tag;
      EXPECT_EQ(A.FusedInstructions, B.FusedInstructions) << Tag;
      EXPECT_EQ(A.ThreadedInstructions, B.ThreadedInstructions) << Tag;
    }
  }
}
