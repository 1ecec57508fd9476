//===----------------------------------------------------------------------===//
///
/// \file
/// crash-campaign: one op is one verify::runCrashCampaigns call over all
/// three campaign modes for one (program, configuration): the six paper
/// programs and two generated ones under wario, wario-diff and
/// wario-spec, plus the three negative controls on the programs where the
/// repository's tests pin them as caught. Modules compile in set-up. The
/// emulator is used as the fault injector uses it (one golden recording,
/// then many short snapshot replays and tail splices over a two-worker
/// fan-out), unlike the long runs of intermittent-emulate.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "verify/FaultInjector.h"


using namespace perfbench;
using namespace wario;
using namespace wario::verify;

namespace {

/// About how long one pass (27 campaigns) takes on a 4-core x86-64
/// Release build; it fixes the passes a traced run's per-layer times
/// count.
constexpr double NominalPassSeconds = 1.25;

/// Fan-out width of every campaign.
constexpr unsigned CampaignJobs = 2;

struct Campaign {
  std::string Program;
  const Config *Cfg = nullptr;
  std::unique_ptr<Compiled> Code;
};

struct Inputs {
  std::vector<Program> Programs;
  std::vector<Config> Configs; ///< Clean configs, then negative controls.
  std::map<std::string, Reference> Refs;
  std::vector<Campaign> Campaigns;
  std::vector<std::unique_ptr<Compiled>> PlainC; ///< Quality baselines.
  Quality Q;
  std::map<std::string, double> CompileWork;
};

std::vector<Config> campaignConfigs() {
  std::vector<Config> C;
  C.push_back(envConfig(Environment::WarioComplete));
  C.push_back(strategyConfig(CheckpointStrategy::Differential));
  C.push_back(strategyConfig(CheckpointStrategy::Speculative));
  // Negative controls, pinned as caught by CrashConsistencyTest (crc)
  // and StrategyTest (coremark).
  Config Weak = envConfig(Environment::WarioComplete);
  Weak.Name = "wario-weakened";
  Weak.PO.ResolveMiddleEndWars = false;
  Weak.Negative = true;
  C.push_back(Weak);
  Config Diff = strategyConfig(CheckpointStrategy::Differential);
  Diff.Name = "wario-diff-weakened";
  Diff.PO.DiffFullRollback = false;
  Diff.Negative = true;
  C.push_back(Diff);
  Config Spec = strategyConfig(CheckpointStrategy::Speculative);
  Spec.Name = "wario-spec-weakened";
  Spec.PO.SpecLogWars = false;
  Spec.Negative = true;
  C.push_back(Spec);
  return C;
}

/// The program each negative control runs on.
const char *negativeProgram(const Config &C) {
  return C.PO.ResolveMiddleEndWars ? "coremark" : "crc";
}

FaultInjectorOptions campaignOptions(const Campaign &C) {
  FaultInjectorOptions FI;
  FI.Samples = 48;
  FI.MaxPoints = 192;
  FI.Jobs = CampaignJobs;
  FI.BaseEO.CollectRegionSizes = false;
  FI.BaseEO.WarIsFatal = !C.Cfg->Negative;
  // Corrupted loop state can run away; cap it into run-error divergences.
  // A consistent re-execution of the negative-control programs (golden
  // runs of 0.4M-1M cycles) stays below twice the golden length.
  if (C.Cfg->Negative)
    FI.BaseEO.MaxCycles = 2'000'000;
  FI.Workload = C.Program;
  FI.Config = C.Cfg->Name;
  return FI;
}

/// Empty when the reports are the known answer: clean configurations
/// never diverge, negative controls are caught.
std::string verdict(const Campaign &C, const Reference &Ref,
                    const std::vector<CrashReport> &Rs) {
  size_t Divergences = 0;
  for (const CrashReport &Rep : Rs) {
    if (!Rep.Ok)
      return "campaign failed: " + Rep.Error;
    if (Rep.GoldenReturn != Ref.Return)
      return "golden return differs from reference";
    Divergences += Rep.Divergences.size();
  }
  if (C.Cfg->Negative && Divergences == 0)
    return "negative control not caught";
  if (!C.Cfg->Negative && Divergences != 0)
    return std::to_string(Divergences) + " divergences on a clean build";
  return "";
}

std::string campaignFingerprint(const std::vector<CrashReport> &Rs) {
  std::string Out;
  for (const CrashReport &Rep : Rs)
    Out += Rep.format() + "|" + std::to_string(Rep.PhysicalRuns) + "," +
           std::to_string(Rep.ResumedRuns) + "," +
           std::to_string(Rep.SplicedRuns) + "," +
           std::to_string(Rep.SnapshotBytes) + "\n";
  return Out;
}

} // namespace

void perfbench::runCrashCampaign(const Args &A, Report &R) {
  Inputs In;
  double SetupSeconds = timedSetups(R, [&] {
    Inputs S;
    S.Programs = paperPrograms();
    S.Programs.push_back(
        generatedProgram(SizeClass::Small, A.Seed * 0x100 + 11, "gen-small"));
    S.Programs.push_back(generatedProgram(SizeClass::Medium,
                                          A.Seed * 0x100 + 12, "gen-medium"));
    S.Configs = campaignConfigs();
    const Config Plain = envConfig(Environment::PlainC);
    QualityAccumulator Acc;
    for (const Program &P : S.Programs) {
      S.Refs[P.Name] = interpretReference(P);
      if (!S.Refs[P.Name].Ok)
        R.fail(S.Refs[P.Name].Error);
      for (const Config &C : S.Configs) {
        if (C.Negative && P.Name != negativeProgram(C))
          continue;
        Campaign Cm{P.Name, &C,
                    std::make_unique<Compiled>(compileProgram(P, C.PO))};
        if (!Cm.Code->ok()) {
          R.fail(Cm.Code->Error);
          continue;
        }
        addCompileCounters(S.CompileWork, *Cm.Code);
        std::string Why;
        if (!C.Negative &&
            !checkCell({P.Name, &C, &Cm.Code->MM}, S.Refs[P.Name],
                       P.Paper ? &Acc : nullptr, &Why))
          R.fail(Why);
        S.Campaigns.push_back(std::move(Cm));
      }
      if (!P.Paper)
        continue;
      // The plain-C baseline the cycle ratio is normalized against.
      auto Base = std::make_unique<Compiled>(compileProgram(P, Plain.PO));
      std::string Why;
      if (!Base->ok())
        R.fail(Base->Error);
      else if (!checkCell({P.Name, &Plain, &Base->MM}, S.Refs[P.Name], &Acc,
                          &Why))
        R.fail(Why);
      S.PlainC.push_back(std::move(Base));
    }
    std::string Why;
    if (!Acc.finish(S.Q, &Why))
      R.fail(Why);
    std::string Fp = setupFingerprint(S.Q, S.CompileWork);
    In = std::move(S);
    return Fp;
  });
  R.Work = In.CompileWork;

  const std::vector<CampaignMode> Modes = {CampaignMode::RegionBoundaries,
                                           CampaignMode::Stratified,
                                           CampaignMode::Adversarial};
  const size_t N = In.Campaigns.size();
  FirstRuns Firsts(N);
  uint64_t Points = 0, Emulations = 0, Physical = 0, Resumed = 0,
           Spliced = 0, SnapshotBytes = 0, Dispatches = 0;
  std::vector<CrashReport> Rs;
  OpLog L = runPasses(
      N, A, R,
      [&](size_t C) {
        const Campaign &Cm = In.Campaigns[C];
        SpanScope Sp("verify.campaign");
        Rs = runCrashCampaigns(Cm.Code->MM, campaignOptions(Cm), Modes);
      },
      [&](size_t C) {
        const Campaign &Cm = In.Campaigns[C];
        const std::string Key = Cm.Program + "/" + Cm.Cfg->Name;
        std::string Why = verdict(Cm, In.Refs.at(Cm.Program), Rs);
        if (!Why.empty())
          return R.fail(Key + ": " + Why);
        FirstRuns::Verdict V = Firsts.check(C, campaignFingerprint(Rs));
        if (V == FirstRuns::Differs)
          R.fail(Key + ": campaign is not deterministic");
        if (V != FirstRuns::First)
          return;
        for (const CrashReport &Rep : Rs) {
          Points += Rep.PointsTested;
          Emulations += Rep.EmulationsRun;
        }
        // Engine statistics are shared by the reports of one call.
        const CrashReport &Front = Rs.front();
        Physical += Front.PhysicalRuns;
        Resumed += Front.ResumedRuns;
        Spliced += Front.SplicedRuns;
        SnapshotBytes += Front.SnapshotBytes;
        Dispatches += Front.Dispatch.Dispatches;
      });

  R.Work["verify.points_tested"] = double(Points);
  R.Work["verify.emulations_run"] = double(Emulations);
  R.Work["verify.physical_runs"] = double(Physical);
  R.Work["verify.resumed_share"] =
      Physical ? double(Resumed) / double(Physical) : 0;
  R.Work["verify.spliced_share"] =
      Physical ? double(Spliced) / double(Physical) : 0;
  R.Work["verify.snapshot_bytes"] = double(SnapshotBytes);
  // Not a work counter: with two workers the default engine's dispatch
  // count moves with how the crash points interleave.
  R.Layer["emu.dispatches"] = double(Dispatches);
  R.NominalPasses = nominalPasses(A, NominalPassSeconds);
  addEndToEnd(R, SetupSeconds, L, In.Q);
}
