//===----------------------------------------------------------------------===//
///
/// \file
/// serve-mixed: one op is one request round trip to an in-process
/// serve::Server over its Unix socket, in a closed loop of two client
/// connections (each sends its next request after the reply) against a
/// two-worker pool. The request mix is wario_loadgen's traffic model
/// (tools/wario_loadgen.cpp, requestFor) widened to the six paper
/// programs, three tenants and five environments: loadgen's three plus
/// r-pdg and epilog-optimizer, which share a middle end, so that some
/// requests hit at the middle-end level. Each pass is one loadgen-style
/// run from a cold cache (a tenant namespace new to the pass); the byte
/// budget holds about one pass, so earlier passes' entries are evicted.
/// Hits measure the protocol, StagedCache and pool; misses measure
/// compile and emulation behind them.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "emu/ThreadedEngine.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <array>
#include <iterator>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace wario;
using namespace wario::serve;

namespace {

/// About how long one pass (360 requests) takes on a 4-core x86-64
/// Release build; it fixes the passes a traced run's per-layer times
/// count.
constexpr double NominalPassSeconds = 2.0;

constexpr unsigned Clients = 2;
constexpr unsigned ServerJobs = 2;
constexpr unsigned Tenants = 3;
/// Shared byte budget of the four cache levels, wario_loadgen's default:
/// more than one pass's entries (about 190 MiB) and less than two, so
/// each pass evicts the previous pass's.
constexpr size_t CacheBytes = 256u << 20;
/// Requests per program in a pass: two periods of the per-program field
/// cycle of requestFor below, so that every cache level answers some.
constexpr unsigned PerProgram = 60;

struct Schedule {
  std::string Name;
  EmulatorOptions EO;
  bool FailsPower = false;
};

/// One distinct (program, environment, schedule) request body and the
/// reply a cold in-process compile and emulation gives for it.
struct Cell {
  std::string Program;
  const Config *Cfg = nullptr;
  const Schedule *Sched = nullptr;
  RunReplyMsg Expected;
};

struct Inputs {
  std::vector<Config> Configs;
  std::vector<Schedule> Schedules;
  std::vector<Cell> Cells;
  Quality Q;
  std::map<std::string, double> Work;
  std::unique_ptr<Server> Srv;
};

/// The reply fields that are pure functions of the request: everything
/// except the stage seconds and which cache levels answered.
RunReplyMsg comparable(RunReplyMsg M) {
  M.FrontendSeconds = M.FrontHalfSeconds = M.MiddleEndSeconds =
      M.BackendSeconds = M.EmulateSeconds = 0;
  M.ProvenanceBits = 0;
  return M;
}

/// Seconds this request spent computing. A reply carries the stage
/// seconds of the artifacts it was built from, including ones an earlier
/// request computed and the cache kept, so only the stages below the
/// first level that hit are this request's work.
double computeSeconds(const RunReplyMsg &M) {
  const Provenance P = Provenance::fromBits(M.ProvenanceBits);
  if (P.RunHit)
    return 0;
  double S = M.EmulateSeconds;
  if (P.CompileHit)
    return S;
  S += M.BackendSeconds;
  if (P.MidHit)
    return S;
  S += M.MiddleEndSeconds;
  if (P.FrontHit)
    return S;
  return S + M.FrontendSeconds + M.FrontHalfSeconds;
}

/// wario_loadgen's two power schedules: continuous, and every fifth
/// request a fixed 2M-cycle on-period.
std::vector<Schedule> serveSchedules() {
  std::vector<Schedule> S(2);
  S[0].Name = "continuous";
  S[1].Name = "on-2M";
  S[1].EO.Power = PowerSchedule::fixed(2'000'000);
  S[1].FailsPower = true;
  return S;
}

/// wario_loadgen's environments (plain C, ratchet, wario), then the pair
/// that shares a middle end.
const Environment ServeEnvs[] = {Environment::PlainC, Environment::Ratchet,
                                 Environment::WarioComplete,
                                 Environment::RPDG, Environment::EpilogOnly};

/// One request of the mix, as positions in the seeded program order,
/// ServeEnvs, the tenants and serveSchedules().
struct Request {
  size_t Prog, Env, Tenant, Sched;
};

/// wario_loadgen's requestFor rules (tenant on a stride of 2, environment
/// on a stride of 3, every fifth request on intermittent power) applied
/// to each program's own request counter J = Idx / 6, so that programs,
/// tenants and environments combine freely although six programs and
/// three tenants share a factor. Plain C stays on continuous power: it
/// has no checkpoints, and aes cannot finish within a 2M-cycle on-period.
Request requestFor(uint64_t Idx, size_t Programs) {
  const uint64_t J = Idx / Programs;
  const size_t Env = size_t(J / 3 % std::size(ServeEnvs));
  const bool Intermittent =
      J % 5 == 4 && ServeEnvs[Env] != Environment::PlainC;
  return Request{size_t(Idx % Programs), Env, size_t(J / 2 % Tenants),
                 Intermittent ? size_t(1) : size_t(0)};
}

/// Which level answered a request: run, compile, mid or front hit, or a
/// full miss.
enum Answer { RunHit, CompileHit, MidHit, FrontHit, Miss, NumAnswers };
const char *const AnswerNames[] = {"run", "compile", "mid", "front", "miss"};

Answer answerOf(const RunReplyMsg &M) {
  const Provenance P = Provenance::fromBits(M.ProvenanceBits);
  return P.RunHit       ? RunHit
         : P.CompileHit ? CompileHit
         : P.MidHit     ? MidHit
         : P.FrontHit   ? FrontHit
                        : Miss;
}

struct ClientLog {
  std::vector<double> PassSeconds;
  /// Latency of each slot (request index in the pass), traced or not.
  std::map<uint64_t, std::vector<double>> TracedMs, UntracedMs;
  std::map<uint64_t, uint64_t> TracedOpSlot;
  double ComputeMs = 0, TracedRttMs = 0;
  uint64_t Traced = 0;
  uint64_t Answers[NumAnswers] = {};
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< The first few.
  /// Cache evictions so far, at each of this client's pass boundaries.
  std::vector<uint64_t> EvictionsAt;
};

uint64_t evictions(const Server &Srv) {
  const CacheCounters CC = Srv.stats().Counters;
  uint64_t N = 0;
  for (unsigned I = 0; I != NumCacheLevels; ++I)
    N += CC.Evictions[I];
  return N;
}

} // namespace

void perfbench::runServeMixed(const Args &A, Report &R) {
  const std::string Socket =
      A.WorkDir + "/serve-" + std::to_string(getpid()) + ".sock";
  Inputs In;
  double SetupSeconds = timedSetups(R, [&] {
    In = Inputs(); // Stops the previous round's server.
    Inputs S;
    for (Environment E : ServeEnvs)
      S.Configs.push_back(envConfig(E));
    S.Schedules = serveSchedules();
    S.Srv = std::make_unique<Server>(
        ServerOptions{Socket, CacheBytes, ServerJobs});
    std::string Err;
    if (!S.Srv->start(&Err))
      R.fail("server start: " + Err);

    // The cold reference for every distinct request, itself checked
    // against the interpreter.
    QualityAccumulator Acc;
    uint64_t Insts = 0, Dispatches = 0, Failures = 0;
    for (const Program &P : paperPrograms()) {
      Reference Ref = interpretReference(P);
      if (!Ref.Ok)
        R.fail(Ref.Error);
      for (const Config &C : S.Configs) {
        Compiled Code = compileProgram(P, C.PO);
        if (!Code.ok()) {
          R.fail(Code.Error);
          continue;
        }
        addCompileCounters(S.Work, Code);
        std::string Why;
        if (!checkCell({P.Name, &C, &Code.MM}, Ref, &Acc, &Why))
          R.fail(Why);
        Emulator Emu(Code.MM);
        for (const Schedule &Sc : S.Schedules) {
          if (C.plain() && Sc.FailsPower)
            continue; // Never requested (see requestFor).
          EngineStats St;
          RunResult RR;
          RR.Pipeline = Code.Stats;
          RR.TextBytes = Code.MM.textSizeBytes();
          {
            SpanScope Sp("check.emulate");
            RR.Emu = Emu.run(effectiveOptions(C.PO, Sc.EO), "main", nullptr,
                             &St);
          }
          if (!matchesReference(RR.Emu, Ref, !Sc.FailsPower, &Why))
            R.fail(P.Name + "/" + C.Name + "/" + Sc.Name + ": " + Why);
          Insts += RR.Emu.InstructionsExecuted;
          Dispatches += St.Dispatches;
          Failures += RR.Emu.PowerFailures;
          S.Cells.push_back(
              {P.Name, &C, &Sc, comparable(makeRunReply(RR, Provenance()))});
        }
      }
    }
    S.Work["emu.insts"] = double(Insts);
    S.Work["emu.dispatches"] = double(Dispatches);
    S.Work["emu.power_failures"] = double(Failures);
    std::string Why;
    if (!Acc.finish(S.Q, &Why))
      R.fail(Why);
    std::string Fp = setupFingerprint(S.Q, S.Work);
    In = std::move(S);
    return Fp;
  });
  R.Work = In.Work;

  // A pass is one loadgen-style run: PerProgram requests per program,
  // all under tenants new to the pass. As in wario_loadgen, each client
  // takes its own range of the request indices: client 0 the first
  // period of every program's cycle, client 1 the second, which repeats
  // the first's keys, so most of its requests find them in the cache or
  // wait on client 0 computing them (the cache counts both as hits). The
  // seed picks which program each residue of the index stands for.
  const size_t NumProgs = paperPrograms().size();
  const uint64_t PassLength = NumProgs * PerProgram;
  std::vector<size_t> ProgOrder(NumProgs);
  for (size_t I = 0; I != NumProgs; ++I)
    ProgOrder[I] = I;
  Rng Shuffle(A.Seed ^ 0x5E4Eull);
  for (size_t I = NumProgs - 1; I > 0; --I)
    std::swap(ProgOrder[I], ProgOrder[Shuffle.below(unsigned(I + 1))]);

  std::map<std::array<size_t, 3>, size_t> CellOf; // (prog, env, sched)
  for (size_t C = 0, P = 0; C != In.Cells.size(); ++C) {
    if (C && In.Cells[C].Program != In.Cells[C - 1].Program)
      ++P;
    CellOf[{P, size_t(In.Cells[C].Cfg - In.Configs.data()),
            size_t(In.Cells[C].Sched - In.Schedules.data())}] = C;
  }

  std::vector<ClientLog> Logs(Clients);
  const double Start = now(), StartCpu = processCpuSeconds();
  const double Deadline = Start + A.Seconds;
  auto ClientLoop = [&](unsigned Id) {
    ClientLog &Log = Logs[Id];
    auto Fail = [&](const std::string &Why) {
      ++Log.Failed;
      if (Log.Failures.size() < 8)
        Log.Failures.push_back(Why);
    };
    Client Cl;
    std::string Err;
    if (!Cl.connect(Socket, &Err)) {
      ++Log.Attempted;
      Fail("connect: " + Err);
      return;
    }
    for (uint64_t Pass = 0;
         now() < Deadline || (A.Trace && Pass < MinTracedPasses); ++Pass) {
      const double PassStart = now();
      const uint64_t Half = PassLength / Clients;
      for (uint64_t Idx = Id * Half; Idx != (Id + 1) * Half; ++Idx) {
        const Request Q = requestFor(Idx, NumProgs);
        const size_t Prog = ProgOrder[Q.Prog];
        const Cell &C = In.Cells[CellOf.at({Prog, Q.Env, Q.Sched})];
        RunRequestMsg Req;
        Req.Tenant = "pass" + std::to_string(Pass) + "-tenant" +
                     std::to_string(Q.Tenant);
        Req.Workload = C.Program;
        Req.PO = C.Cfg->PO;
        Req.EO = C.Sched->EO;
        const bool Traced = tracedOp(A, Pass, Idx);
        const uint64_t Op = (uint64_t(Id) + 1) << 40 | ++Log.Attempted;
        beginOp(Op, Traced);
        if (Traced)
          Log.TracedOpSlot[Op] = Idx;
        RunReplyMsg Reply;
        const double S = now();
        bool Ok;
        {
          SpanScope Sp("op");
          SpanScope Rtt("serve.rtt");
          Ok = Cl.run(Req, Reply, &Err);
        }
        const double Ms = (now() - S) * 1e3;
        beginOp(0, false);
        (Traced ? Log.TracedMs : Log.UntracedMs)[Idx].push_back(Ms);
        auto Name = [&] {
          return Req.Tenant + "/" + C.Program + "/" + C.Cfg->Name + "/" +
                 C.Sched->Name;
        };
        if (!Ok) {
          Fail(Name() + ": " + Err);
          if (!Cl.connected())
            return;
          continue;
        }
        if (!Reply.Ok) {
          Fail(Name() + ": server: " + Reply.Error);
          continue;
        }
        if (comparable(Reply) != C.Expected) {
          Fail(Name() + ": reply differs from the cold in-process result");
          continue;
        }
        ++Log.Answers[answerOf(Reply)];
        if (Traced) {
          Log.ComputeMs += 1e3 * computeSeconds(Reply);
          Log.TracedRttMs += Ms;
          ++Log.Traced;
        }
      }
      Log.PassSeconds.push_back(now() - PassStart);
      Log.EvictionsAt.push_back(evictions(*In.Srv));
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Clients; ++I)
    Threads.emplace_back(ClientLoop, I);
  for (std::thread &T : Threads)
    T.join();
  R.CpuPerWall = (processCpuSeconds() - StartCpu) / (now() - Start);

  // The latency percentiles are over each slot's median across passes and
  // ops per second is over the median pass, as in runPasses.
  OpLog L;
  double ComputeMs = 0, TracedRttMs = 0;
  uint64_t Traced = 0, Answers[NumAnswers] = {};
  std::vector<double> SlotMedians, PassSeconds;
  std::vector<std::vector<double>> TracedMs, UntracedMs;
  for (ClientLog &Log : Logs) {
    PassSeconds.insert(PassSeconds.end(), Log.PassSeconds.begin(),
                       Log.PassSeconds.end());
    for (auto &[Idx, V] : Log.UntracedMs) {
      SlotMedians.push_back(median(V));
      auto It = Log.TracedMs.find(Idx);
      if (It != Log.TracedMs.end()) {
        TracedMs.push_back(It->second);
        UntracedMs.push_back(V);
      }
    }
    for (const auto &[Op, Idx] : Log.TracedOpSlot)
      R.TracedOpCell[Op] = Idx;
    L.Attempted += Log.Attempted;
    ComputeMs += Log.ComputeMs;
    TracedRttMs += Log.TracedRttMs;
    Traced += Log.Traced;
    for (unsigned I = 0; I != NumAnswers; ++I)
      Answers[I] += Log.Answers[I];
    R.Failed += Log.Failed;
    for (const std::string &F : Log.Failures)
      if (R.Failures.size() < 8)
        R.Failures.push_back(F);
  }
  L.P50Ms = percentile(SlotMedians, 0.50);
  L.P95Ms = percentile(SlotMedians, 0.95);
  const double Pass = median(PassSeconds);
  L.OpsPerSecond = Pass > 0 ? double(PassLength) / Pass : 0;
  if (A.Trace)
    R.TraceOverheadMs = pairedOverheadMs(TracedMs, UntracedMs);
  StatsReplyMsg Stats = In.Srv->stats();
  In.Srv->stop();

  uint64_t Answered = 0;
  for (uint64_t N : Answers)
    Answered += N;
  std::printf("# requests answered by level:");
  for (unsigned I = 0; I != NumAnswers; ++I)
    std::printf(" %s %.4f", AnswerNames[I],
                Answered ? double(Answers[I]) / double(Answered) : 0.0);
  std::printf(" (%llu requests)\n", (unsigned long long)Answered);

  const CacheCounters &CC = Stats.Counters;
  const char *Levels[] = {"front", "mid", "compile", "run"};
  for (unsigned I = 0; I != NumCacheLevels; ++I) {
    uint64_t Lookups = CC.Hits[I] + CC.Misses[I];
    R.Layer[std::string("serve.cache.hit_share.") + Levels[I]] =
        Lookups ? double(CC.Hits[I]) / double(Lookups) : 0;
  }
  // Evictions in client 0's last pass: by then the cache has filled and
  // each pass evicts about one pass's entries.
  const std::vector<uint64_t> &E = Logs[0].EvictionsAt;
  R.Layer["serve.cache.evictions"] =
      E.size() >= 2 ? double(E.back() - E[E.size() - 2]) : 0;
  R.Layer["serve.cache.bytes_used"] = double(CC.BytesUsed);
  R.Layer["serve.rtt.ms"] = Traced ? TracedRttMs / double(Traced) : 0;
  R.Layer["serve.compute.ms"] = Traced ? ComputeMs / double(Traced) : 0;
  R.Layer["serve.overhead.ms"] =
      Traced ? (TracedRttMs - ComputeMs) / double(Traced) : 0;
  R.NominalPasses = nominalPasses(A, NominalPassSeconds);
  addEndToEnd(R, SetupSeconds, L, In.Q);
}
