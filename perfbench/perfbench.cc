/**
 * @file
 * Host benchmark program for the SecPB simulator.
 *
 * Runs one workload (fig6_grid, paper_point, crash_soak, multicore_mix)
 * through the library's public entry points only -- SimulationSpec /
 * Simulation, the workload generators, the fault injector, tamper
 * injector and recovery verifier, and SimulationResult / the stat tree --
 * and prints what a user of the paper sweep waits for: wall time,
 * simulated Minstr per host second, set-up time, peak RSS and per-op
 * latency percentiles. A workload is repeated in reps until the time
 * budget is spent; every rep must reproduce the same sim_digest.
 *
 * With --trace 1 the program first repeats the untraced measurement for
 * half the budget, then records spans around the public calls (plus a
 * timing wrapper around WorkloadGenerator::next) for the other half and
 * reports per-layer metrics and the tracing overhead. Spans stay in
 * memory and are written to --spans-out at exit.
 *
 * The last stdout line is one JSON object; run.py turns it into the
 * benchmark's result line. README.md in this directory documents the
 * workloads and the layer -> metric map.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/simulation.hh"
#include "exp/report.hh"
#include "fault/injector.hh"
#include "fault/tamper.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/json.hh"
#include "workload/registry.hh"
#include "workload/synthetic.hh"

using namespace secpb;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Work sizes of one workload rep. "full" is what the benchmark times;
 *  "tiny" keeps every code path and op count but shrinks the work, for
 *  the benchmark's own tests. */
struct Scale
{
    std::uint64_t fig6Instr;      ///< Instructions per fig6 point.
    std::uint64_t paperInstr;     ///< The gamess x cobcm point.
    Tick paperSliceTicks;         ///< One paper_point op.
    std::uint64_t soakTrials;     ///< Crash trials per rep.
    std::uint64_t soakInstrMin;   ///< Trial length in [min, 2*min).
    Tick soakCrashSpan;           ///< Crash tick in [100, 100 + span).
    std::uint64_t mcInstr;        ///< Instructions per core.
    Tick mcSliceTicks;            ///< One multicore_mix op.
};

constexpr Scale FullScale{250'000, 20'000'000, 40'000, 3000,
                          8'000,   40'000,     3'000'000, 16'000};
constexpr Scale TinyScale{20'000, 300'000, 250, 1000,
                          2'000,  10'000,  60'000, 400};

/** The registry server workloads multicore_mix also attempts on 2
 *  cores, and their instructions per core. */
constexpr const char *RegistryPoints[] = {
    "kv_wal", "fs_journal", "pstore", "zipf_mix",
};
constexpr std::uint64_t RegistryInstr = 400'000;

/** Ops a timed run collects at least, so p99 has ten samples beyond. */
constexpr std::uint64_t MinTimedOps = 1010;

/** Constructions timed per rep for single-machine workloads; the
 *  median is the rep's set-up time (one construction is sub-ms). */
constexpr unsigned SetupSamples = 15;

constexpr const char *MixProfiles[] = {"gcc", "gamess", "mcf", "povray"};

/**
 * Host threads of the sharded multi-core engine: half of a 4-CPU host.
 * The registry points run sharded. multicore_mix times one shard: two
 * threads handing each epoch over let host scheduling hiccups set its op
 * tail (op_p99_ms spread 66-70% across runs). Every multicore_mix run
 * still runs one sharded rep, which must give the same digest and, when
 * traced, yields the shard speedup.
 */
constexpr unsigned MixShards = 2;

constexpr Scheme SoakSchemes[] = {
    Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm, Scheme::Cm,
    Scheme::NoGap, Scheme::Secpm, Scheme::Triad, Scheme::Eadr,
};

constexpr const char *SoakProfiles[] = {
    "gamess", "omnetpp", "lbm", "mcf", "libquantum",
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = FullScale;
    /** Fixed rep count; 0 repeats reps until the time budget is spent. */
    std::size_t reps = 0;
    std::string spansOut;
};

/** FNV-1a over everything a run produced: the run's identity. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            _h ^= c[i];
            _h *= 1099511628211ULL;
        }
    }

    void
    str(const std::string &s)
    {
        bytes(s.data(), s.size() + 1);
    }

    template <typename T>
    void
    num(T v)
    {
        static_assert(std::is_arithmetic_v<T>);
        bytes(&v, sizeof(v));
    }

    void
    result(const SimulationResult &r)
    {
        r.visitFields([this](const char *name, auto v) {
            str(name);
            num(v);
        });
    }

    template <typename M>
    void
    statTree(const M &machine)
    {
        std::ostringstream os;
        machine.dumpStats(os);
        str(os.str());
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 1469598103934665603ULL;
};

/**
 * In-memory span log. Spans nest through an explicit stack and are only
 * opened on the program's main thread; self time is a span's duration
 * minus its children's. When disabled it records nothing.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::int32_t parent;
        double start;
        double end;
        double childTime;
    };

    void enable() { _enabled = true; _epoch = Clock::now(); }
    bool enabled() const { return _enabled; }

    std::int32_t
    open(const char *name)
    {
        if (!_enabled)
            return -1;
        const std::int32_t parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back({name, parent, since(_epoch), 0.0, 0.0});
        _stack.push_back(static_cast<std::int32_t>(_spans.size() - 1));
        return _stack.back();
    }

    void
    close(std::int32_t id)
    {
        if (id < 0)
            return;
        Span &s = _spans[id];
        s.end = since(_epoch);
        _stack.pop_back();
        if (s.parent >= 0)
            _spans[s.parent].childTime += s.end - s.start;
    }

    std::size_t size() const { return _spans.size(); }

    /** Self time per span name over spans [begin, end). */
    std::map<std::string, double>
    selfTimes(std::size_t begin, std::size_t end) const
    {
        std::map<std::string, double> out;
        for (std::size_t i = begin; i < end; ++i)
            out[_spans[i].name] +=
                _spans[i].end - _spans[i].start - _spans[i].childTime;
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        JsonWriter w(os);
        w.beginArray();
        for (const Span &s : _spans) {
            w.beginObject();
            w.field("name", s.name);
            w.field("parent", static_cast<std::int64_t>(s.parent));
            w.field("start_us", s.start * 1e6);
            w.field("dur_us", (s.end - s.start) * 1e6);
            w.field("self_us", (s.end - s.start - s.childTime) * 1e6);
            w.endObject();
        }
        w.endArray();
        os << "\n";
    }

  private:
    bool _enabled = false;
    Clock::time_point _epoch;
    std::vector<Span> _spans;
    std::vector<std::int32_t> _stack;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name)
        : _log(log), _id(log.open(name))
    {}
    ~ScopedSpan() { _log.close(_id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &_log;
    std::int32_t _id;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Host time of one generator's next() calls, estimated from a sample. */
struct NextTiming
{
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    double sampledS = 0.0;

    double
    seconds() const
    {
        return sampled ? sampledS * static_cast<double>(calls) /
                             static_cast<double>(sampled)
                       : 0.0;
    }
};

/** The empty interval between two clock reads (about 40 ns on a
 *  virtualized Xeon), subtracted from every timed call. */
double
clockReadCost()
{
    static const double cost = [] {
        std::vector<double> v;
        for (int i = 0; i < 2001; ++i) {
            const Clock::time_point t0 = Clock::now();
            v.push_back(since(t0));
        }
        return median(v);
    }();
    return cost;
}

/**
 * Timing wrapper around a generator's next(). A call costs tens of
 * nanoseconds, too little for a span and about as much as a clock read,
 * so only every SampleEvery-th call is timed and the total is scaled up.
 * Each wrapper writes its own NextTiming, so shard threads never share
 * one.
 */
class TimedGenerator : public WorkloadGenerator
{
  public:
    static constexpr std::uint64_t SampleEvery = 16;

    TimedGenerator(std::unique_ptr<WorkloadGenerator> inner,
                   NextTiming &timing)
        : _inner(std::move(inner)), _timing(timing),
          _clockCost(clockReadCost())
    {}

    bool
    next(TraceOp &op) override
    {
        if (_timing.calls++ % SampleEvery)
            return _inner->next(op);
        const Clock::time_point t0 = Clock::now();
        const bool more = _inner->next(op);
        _timing.sampledS += since(t0) - _clockCost;
        ++_timing.sampled;
        return more;
    }

    const WorkloadCounters *
    counters() const override
    {
        return _inner->counters();
    }

  private:
    std::unique_ptr<WorkloadGenerator> _inner;
    NextTiming &_timing;
    double _clockCost;
};

/** One pass over a workload. */
struct Rep
{
    double wallS = 0.0;       ///< Measured phase, digest work excluded.
    double setupS = 0.0;      ///< Machine + generator construction.
    double peakRssMb = 0.0;   ///< Peak resident set during the rep.
    std::uint64_t instructions = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<double> opMs;
    std::uint64_t digest = 0;
    /** Per-layer counts and times (traced reps only). */
    std::map<std::string, double> layer;
};

/** Shared state of one benchmark run. */
struct Ctx
{
    const Options &opt;
    SpanLog spans;
    /** Host threads of the multi-core machine (1 when timed). */
    unsigned shards = 1;
    /** Where an isolated rep streams its progress (child process only). */
    std::FILE *progress = nullptr;
    /** next() timings of the generators built in the current rep when
     *  tracing (a deque: wrappers keep references into it). */
    std::deque<NextTiming> nextTimings;

    explicit Ctx(const Options &o) : opt(o) {}

    bool tracing() const { return spans.enabled(); }

    /** Wrap @p gen in a timing wrapper when tracing. */
    std::unique_ptr<WorkloadGenerator>
    wrap(std::unique_ptr<WorkloadGenerator> gen)
    {
        if (!tracing())
            return gen;
        return std::make_unique<TimedGenerator>(std::move(gen),
                                                nextTimings.emplace_back());
    }
};

/** Stat-tree scalars (relative to a machine's stat root) that the
 *  per-layer counts are derived from. */
constexpr const char *LayerStats[] = {
    "cpu.instructions",     "cpu.stores",           "cpu.sb_stalls",
    "secpb.persists",       "secpb.allocs",         "secpb.coalesced_hits",
    "secpb.full_rejects",   "secpb.drained_entries", "secpb.battery_stalls",
    "crypto.otp_generated", "crypto.mac_generated", "crypto.ciphertexts",
    "bmt.root_updates",     "bmt.merged_updates",   "bmt.full_walks",
    "ctr_cache.hits",       "ctr_cache.misses",     "bmt_cache.hits",
    "bmt_cache.misses",     "mac_cache.hits",       "mac_cache.misses",
    "wpq.pushes",           "wpq.full_rejects",     "pcm.reads",
    "pcm.writes",
};

/** Add one machine's simulated counts to a traced rep. */
void
addMachineCounts(Rep &rep, SecPbSystem &sys)
{
    for (const char *path : LayerStats) {
        const auto *s = dynamic_cast<const Scalar *>(
            sys.stats().findByPath(path));
        panic_if(!s, "stat '%s' missing from the stat tree", path);
        rep.layer[std::string("stat.") + path] += s->value();
    }
    rep.layer["sim.events"] +=
        static_cast<double>(sys.eventQueue().numExecuted());
    rep.layer["recovery.oracle_blocks"] +=
        static_cast<double>(sys.oracle().numBlocks());
    rep.layer["recovery.oracle_persists"] +=
        static_cast<double>(sys.oracle().numPersists());
}

void
addSimulationCounts(Rep &rep, Simulation &sim)
{
    if (!sim.multiCore()) {
        addMachineCounts(rep, sim.system());
        return;
    }
    for (unsigned c = 0; c < sim.numCores(); ++c)
        addMachineCounts(rep, sim.multi().slice(c));
}

/** Open a rep; returns its first span. The previous rep's generators
 *  are gone by now, so their timings can go too. */
std::size_t
beginRep(Ctx &ctx)
{
    ctx.nextTimings.clear();
    return ctx.spans.size();
}

/** Close a rep: fold the span self times and generator timings in. */
void
finishTracedRep(Ctx &ctx, Rep &rep, std::size_t firstSpan)
{
    if (!ctx.tracing())
        return;
    for (const auto &[name, self] :
         ctx.spans.selfTimes(firstSpan, ctx.spans.size()))
        rep.layer["span." + name] += self;
    double nextS = 0.0;
    std::uint64_t calls = 0;
    for (const NextTiming &t : ctx.nextTimings) {
        nextS += t.seconds();
        calls += t.calls;
    }
    rep.layer["workload.next_s"] = nextS;
    rep.layer["workload.next_calls"] = static_cast<double>(calls);
}

// ------------------------------------------------------------------
// fig6_grid: Figure 6's cross-product, one fresh machine per point.
// ------------------------------------------------------------------

Rep
fig6Rep(Ctx &ctx)
{
    Rep rep;
    const std::size_t firstSpan = beginRep(ctx);
    const Clock::time_point t0 = Clock::now();
    double checkS = 0.0;
    Digest digest;

    std::vector<Scheme> schemes{Scheme::Bbb};
    schemes.insert(schemes.end(), std::begin(SchemeZoo),
                   std::end(SchemeZoo));

    for (const BenchmarkProfile &profile : spec2006Profiles()) {
        for (Scheme scheme : schemes) {
            ScopedSpan opSpan(ctx.spans, "op");
            const Clock::time_point opStart = Clock::now();

            ExperimentPoint point;
            point.label = profile.name + "/" + schemeName(scheme);
            point.scheme = scheme;
            point.profile = profile.name;
            point.instructions = ctx.opt.scale.fig6Instr;
            point.seed = ctx.opt.seed;

            const Clock::time_point c0 = Clock::now();
            std::unique_ptr<Simulation> sim;
            std::unique_ptr<WorkloadGenerator> gen;
            {
                ScopedSpan s(ctx.spans, "core.construct");
                SimulationSpec spec;
                spec.base = SecPbSystem::configFor(scheme, profile);
                spec.base.secpb.numEntries = point.secpbEntries;
                spec.instructions = point.instructions;
                spec.seed = point.seed;
                sim = std::make_unique<Simulation>(spec);
                gen = ctx.wrap(std::make_unique<SyntheticGenerator>(
                    profile, point.instructions, point.seed));
            }
            rep.setupS += since(c0);

            ExperimentResult result;
            {
                ScopedSpan s(ctx.spans, "core.run");
                const Clock::time_point r0 = Clock::now();
                result.sim = sim->run(*gen);
                result.hostSeconds = since(r0);
            }

            SweepReport report;
            report.bench = "fig6_grid";
            report.points.push_back(std::move(point));
            report.results.push_back(result);
            {
                ScopedSpan s(ctx.spans, "stats.serialize");
                std::ostringstream os;
                writeSweepJson(os, report);
            }
            rep.opMs.push_back(since(opStart) * 1e3);
            ++rep.ops;
            rep.instructions += result.sim.instructions;

            const Clock::time_point k0 = Clock::now();
            digest.str(sweepJsonDeterministic(report));
            digest.statTree(*sim);
            if (ctx.tracing())
                addSimulationCounts(rep, *sim);
            checkS += since(k0);
        }
    }
    rep.wallS = since(t0) - checkS;
    rep.digest = digest.value();
    finishTracedRep(ctx, rep, firstSpan);
    return rep;
}

// ------------------------------------------------------------------
// paper_point / multicore_mix: one long run driven in tick slices.
// ------------------------------------------------------------------

/** A machine plus the generators it runs. */
struct Machine
{
    std::unique_ptr<Simulation> sim;
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
};

using MachineFactory = std::function<Machine(Ctx &)>;

/**
 * Build the rep's machine SetupSamples times (the median is the rep's
 * set-up time; one construction is too short to time alone), then time
 * the last construction plus driving it to completion in slices of
 * @p slice ticks.
 */
Rep
slicedRep(Ctx &ctx, const MachineFactory &build, Tick slice)
{
    Rep rep;
    const std::size_t firstSpan = beginRep(ctx);

    std::vector<double> setups;
    for (unsigned i = 1; i < SetupSamples; ++i) {
        const Clock::time_point c0 = Clock::now();
        const Machine discarded = build(ctx);
        setups.push_back(since(c0));
    }
    const Clock::time_point t0 = Clock::now();
    Machine m;
    {
        ScopedSpan s(ctx.spans, "core.construct");
        m = build(ctx);
    }
    setups.push_back(since(t0));
    rep.setupS = median(setups);
    if (ctx.progress) {
        std::fprintf(ctx.progress, "setup %.17g %.17g\n", rep.setupS,
                     setups.back());
        std::fflush(ctx.progress);
    }

    Simulation &sim = *m.sim;
    std::vector<WorkloadGenerator *> raw;
    for (auto &g : m.gens)
        raw.push_back(g.get());
    {
        ScopedSpan s(ctx.spans, "core.run");
        sim.start(raw);
    }
    Tick limit = 0;
    double runS = 0.0;
    while (!sim.finished()) {
        ScopedSpan opSpan(ctx.spans, "op");
        ScopedSpan s(ctx.spans, "core.run");
        const Clock::time_point opStart = Clock::now();
        limit += slice;
        sim.runUntil(limit);
        const double dt = since(opStart);
        runS += dt;
        rep.opMs.push_back(dt * 1e3);
        ++rep.ops;
        if (ctx.progress) {
            std::uint64_t retired = 0;
            for (unsigned c = 0; c < sim.numCores(); ++c)
                retired += sim.multiCore() ? sim.multi().cpu(c).instructions()
                                           : sim.system().cpu().instructions();
            std::fprintf(ctx.progress, "op %.17g %llu\n", dt * 1e3,
                         static_cast<unsigned long long>(retired));
            std::fflush(ctx.progress);
        }
    }
    // Time the measured phase, then do the checks.
    rep.wallS = since(t0);

    Digest digest;
    if (sim.multiCore()) {
        for (unsigned c = 0; c < sim.numCores(); ++c) {
            const SimulationResult r = sim.multi().slice(c).result();
            rep.instructions += r.instructions;
            digest.result(r);
        }
        MultiCoreSystem &mc = sim.multi();
        digest.num(mc.now());
        if (ctx.tracing()) {
            const double epochs =
                static_cast<double>(mc.now() / mc.epochTicks());
            rep.layer["core.multicore.epochs"] = epochs;
            rep.layer["core.multicore.migrations"] =
                mc.directory().statMigrations.value();
            rep.layer["core.multicore.remote_read_flushes"] =
                mc.directory().statRemoteReadFlushes.value();
            rep.layer["core.multicore.first_touches"] =
                mc.directory().statFirstTouches.value();
            rep.layer["core.multicore.run_s"] = runS;
        }
    } else {
        const SimulationResult r = sim.result();
        rep.instructions = r.instructions;
        digest.result(r);
    }
    digest.statTree(sim);
    rep.digest = digest.value();
    if (ctx.tracing())
        addSimulationCounts(rep, sim);
    finishTracedRep(ctx, rep, firstSpan);
    return rep;
}

Machine
buildPaperPoint(Ctx &ctx)
{
    const BenchmarkProfile &gamess = profileByName("gamess");
    SimulationSpec spec;
    spec.base = SecPbSystem::configFor(Scheme::Cobcm, gamess);
    spec.instructions = ctx.opt.scale.paperInstr;
    spec.seed = ctx.opt.seed;
    Machine m;
    m.sim = std::make_unique<Simulation>(spec);
    m.gens.push_back(ctx.wrap(std::make_unique<SyntheticGenerator>(
        gamess, spec.instructions, spec.seed)));
    return m;
}

Machine
buildMulticoreMix(Ctx &ctx)
{
    SimulationSpec spec;
    spec.base.scheme = Scheme::Cobcm;
    spec.cores = std::size(MixProfiles);
    spec.shards = ctx.shards;
    spec.instructions = ctx.opt.scale.mcInstr;
    spec.seed = ctx.opt.seed;
    Machine m;
    m.sim = std::make_unique<Simulation>(spec);
    // Each core writes a region of its own. Every page migration runs
    // the remote-write branch of the epoch barrier, which hits the known
    // panic on about 1% of seeds when cores share pages; the registry
    // probe exercises that branch on every run instead. Here the barrier
    // still runs every epoch and grants first touches.
    Addr base = 0;
    for (unsigned c = 0; c < spec.cores; ++c) {
        const BenchmarkProfile &profile = profileByName(MixProfiles[c]);
        m.gens.push_back(ctx.wrap(std::make_unique<SyntheticGenerator>(
            profile, spec.instructions, spec.seed + c, base)));
        base += profile.workingSetPages * PageSize;
    }
    return m;
}

// ------------------------------------------------------------------
// crash_soak: crash at a seeded tick, drain, tamper, re-verify.
// ------------------------------------------------------------------

struct Trial
{
    Scheme scheme;
    SchemeParams params;
    const char *profile;
    std::uint64_t instructions;
    std::uint64_t wseed;
    FaultPlan plan;
};

/** Deterministic per-trial draw from (seed, trial) only. */
Trial
drawTrial(const Options &opt, std::uint64_t trial)
{
    Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + trial);
    Trial t;
    t.scheme = SoakSchemes[trial % std::size(SoakSchemes)];
    if (t.scheme == Scheme::Triad)
        t.params.triadLevels = 1 + static_cast<unsigned>(trial % 4);
    t.profile = SoakProfiles[rng.below(std::size(SoakProfiles))];
    t.instructions =
        opt.scale.soakInstrMin + rng.below(opt.scale.soakInstrMin);
    t.wseed = rng.next();
    t.plan.crashAtTick = 100 + rng.below(opt.scale.soakCrashSpan);
    // A third of the trials drain on a bounded battery fraction.
    if (rng.below(3) == 0)
        t.plan.batteryFraction = rng.uniform();
    // A quarter inject post-crash tampers.
    if (rng.below(4) == 0) {
        t.plan.tamperCount = 1 + static_cast<unsigned>(rng.below(3));
        t.plan.tamperSeed = rng.next();
    }
    return t;
}

SimulationSpec
trialSpec(const Trial &t)
{
    SimulationSpec spec;
    spec.base.scheme = t.scheme;
    spec.base.secpb.params = t.params;
    spec.base.pmDataBytes = 1ULL << 30;
    spec.instructions = t.instructions;
    spec.seed = t.wseed;
    return spec;
}

/** One untraced trial: FaultInjector::run, the library's own crash path.
 *  Only the construction is timed apart, for setup_s. */
FaultReport
injectTrial(Rep &rep, const Trial &t)
{
    const Clock::time_point c0 = Clock::now();
    Simulation sim(trialSpec(t));
    SyntheticGenerator gen(profileByName(t.profile), t.instructions,
                           t.wseed);
    rep.setupS += since(c0);
    FaultReport report = FaultInjector(sim.system(), t.plan).run(gen);
    rep.instructions += sim.result().instructions;
    return report;
}

/**
 * One traced trial: the crash path of FaultInjector::run, split at the
 * public calls so that each phase gets its own span. The traced reps must
 * give the untraced reps' digest, so every trial's verdicts are checked
 * against the library path.
 */
FaultReport
tracedTrial(Ctx &ctx, Rep &rep, const Trial &t)
{
    std::unique_ptr<Simulation> sim;
    std::unique_ptr<WorkloadGenerator> gen;
    const Clock::time_point c0 = Clock::now();
    {
        ScopedSpan s(ctx.spans, "core.construct");
        sim = std::make_unique<Simulation>(trialSpec(t));
        gen = ctx.wrap(std::make_unique<SyntheticGenerator>(
            profileByName(t.profile), t.instructions, t.wseed));
    }
    rep.setupS += since(c0);

    SecPbSystem &sys = sim->system();
    FaultReport report;
    {
        ScopedSpan s(ctx.spans, "core.run");
        sim->start(*gen);
        sim->runUntil(*t.plan.crashAtTick);
    }
    report.crashTick = sys.eventQueue().curTick();
    report.persistsAtCrash = sys.oracle().numPersists();
    report.crashedMidRun = !sim->finished();

    CrashOptions opts;
    if (t.plan.batteryFraction)
        opts.batteryEnergyJ =
            *t.plan.batteryFraction * sys.provisionedCrashEnergy();
    {
        ScopedSpan s(ctx.spans, "recovery.crash_now");
        report.crash = sim->crashNow(opts);
    }

    if (t.plan.tamperCount > 0) {
        const CrashWork &work = report.crash.work;
        {
            ScopedSpan s(ctx.spans, "fault.tamper");
            std::unordered_set<Addr> abandoned;
            for (const AbandonedResidency &a : work.abandoned)
                abandoned.insert(blockAlign(a.addr));
            std::vector<Addr> candidates;
            for (Addr addr : sys.oracle().touchedBlocks())
                if (!abandoned.count(addr) && sys.pm().hasData(addr))
                    candidates.push_back(addr);
            std::sort(candidates.begin(), candidates.end());
            report.tampers = TamperInjector(t.plan.tamperSeed)
                                 .inject(sys.pm(), sys.tree(), sys.layout(),
                                         candidates, t.plan.tamperCount);
        }
        ScopedSpan s(ctx.spans, "recovery.reverify");
        const RecoveryVerifier verifier(sys.layout(), sys.config().keys);
        const bool partial =
            work.batteryExhausted || !work.abandoned.empty();
        report.postTamper =
            partial ? verifier.verifyPartial(sys.pm(), sys.tree(),
                                             sys.oracle(), work.abandoned)
                    : verifier.verifyAll(sys.pm(), sys.tree(), sys.oracle());
        report.tampersAllDetected = TamperInjector::allDetected(
            report.tampers, report.postTamper, sys.layout(), sys.tree());
    }

    rep.instructions += sim->result().instructions;
    if (ctx.tracing()) {
        addSimulationCounts(rep, *sim);
        const CrashWork &w = report.crash.work;
        rep.layer["recovery.entries_drained"] +=
            static_cast<double>(w.entriesDrained);
        rep.layer["recovery.bmt_levels_walked"] +=
            static_cast<double>(w.bmtLevelsWalked);
        rep.layer["recovery.blocks_checked"] += static_cast<double>(
            report.crash.recovery.blocksChecked +
            report.postTamper.blocksChecked);
        rep.layer["recovery.prefix_violations"] += static_cast<double>(
            report.crash.recovery.prefixViolations);
        rep.layer["energy.crash_j"] += report.crash.actualEnergyJ;
        rep.layer["energy.battery_exhausted"] += w.batteryExhausted;
        rep.layer["fault.tampers_injected"] +=
            static_cast<double>(report.tampers.size());
        for (const TamperRecord &r : report.tampers)
            rep.layer["fault.tampers_detected"] += TamperInjector::detected(
                r, report.postTamper, sys.layout(), sys.tree());
    }
    return report;
}

/** The verdict-bearing fields of a crash trial. */
void
digestFault(Digest &d, const FaultReport &r)
{
    d.num(r.crashedMidRun);
    d.num(r.crashTick);
    d.num(r.persistsAtCrash);
    const CrashWork &w = r.crash.work;
    for (std::uint64_t v :
         {w.entriesDrained, w.countersIncremented, w.counterFetches,
          w.otpsGenerated, w.bmtRootUpdates, w.bmtLevelsWalked,
          w.macsComputed, w.ciphertexts, w.pmBlockWrites,
          w.mdcBlockFlushes, w.cacheLinesFlushed, w.bmtNodesRebuilt,
          static_cast<std::uint64_t>(w.abandoned.size())})
        d.num(v);
    d.num(w.batteryExhausted);
    d.num(r.crash.actualEnergyJ);
    d.num(r.crash.drainLatency);
    d.num(r.crash.recovered);
    for (const RecoveryReport *rr : {&r.crash.recovery, &r.postTamper})
        for (std::uint64_t v :
             {rr->blocksChecked, rr->macFailures, rr->bmtFailures,
              rr->plaintextMismatches, rr->spuriousBlocks,
              rr->missingBlocks, rr->prefixViolations, rr->tornDetected,
              rr->staleConsistent})
            d.num(v);
    for (const TamperRecord &t : r.tampers)
        d.str(t.describe());
    d.num(r.tampersAllDetected);
}

Rep
soakRep(Ctx &ctx)
{
    Rep rep;
    const std::size_t firstSpan = beginRep(ctx);
    const Clock::time_point t0 = Clock::now();
    double checkS = 0.0;
    Digest digest;
    for (std::uint64_t i = 0; i < ctx.opt.scale.soakTrials; ++i) {
        const Trial t = drawTrial(ctx.opt, i);
        const Clock::time_point opStart = Clock::now();
        FaultReport r;
        {
            ScopedSpan opSpan(ctx.spans, "op");
            r = ctx.tracing() ? tracedTrial(ctx, rep, t)
                              : injectTrial(rep, t);
        }
        rep.opMs.push_back(since(opStart) * 1e3);
        ++rep.ops;
        if (!r.ok()) {
            ++rep.failed;
            std::printf("FAIL: crash_soak trial %llu seed %llu: %s %s "
                        "(repro: --workload crash_soak --seed %llu)\n",
                        static_cast<unsigned long long>(i),
                        static_cast<unsigned long long>(ctx.opt.seed),
                        schemeName(t.scheme), t.plan.describe().c_str(),
                        static_cast<unsigned long long>(ctx.opt.seed));
        }
        const Clock::time_point k0 = Clock::now();
        digestFault(digest, r);
        checkS += since(k0);
    }
    rep.wallS = since(t0) - checkS;
    rep.digest = digest.value();
    finishTracedRep(ctx, rep, firstSpan);
    return rep;
}

// ------------------------------------------------------------------
// Isolation: work that can hit a simulator panic runs in a child.
// ------------------------------------------------------------------

/** Fork a child that runs @p fn and exits 0; a panic aborts the child
 *  without leaving a core file. Returns the child's pid. */
pid_t
spawn(const std::function<void()> &fn)
{
    std::fflush(stdout);
    const pid_t pid = fork();
    panic_if(pid < 0, "fork failed");
    if (pid == 0) {
        const struct rlimit noCore{0, 0};
        setrlimit(RLIMIT_CORE, &noCore);
        fn();
        std::fflush(stdout);
        _exit(0);
    }
    return pid;
}

bool
exitedCleanly(int status)
{
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * Run @p fn in a forked child that streams each op to the parent, so a
 * simulator panic costs one failed op instead of the run. A rep that
 * dies keeps the ops it finished: its wall time is their sum, and its
 * digest is the count of ops it finished (the panic is deterministic, so
 * every rep of one input dies at the same op). The peak RSS is the
 * child's. Spans stay in the child; their self times come back in the
 * rep's layer map.
 */
Rep
isolatedRep(Ctx &ctx, const std::function<Rep(Ctx &)> &fn)
{
    int fds[2];
    panic_if(pipe(fds) != 0, "pipe failed");
    const pid_t pid = spawn([&] {
        close(fds[0]);
        ctx.progress = fdopen(fds[1], "w");
        const Rep r = fn(ctx);
        std::fprintf(ctx.progress, "rep %.17g %llu %llu\n", r.wallS,
                     static_cast<unsigned long long>(r.instructions),
                     static_cast<unsigned long long>(r.digest));
        for (const auto &[key, value] : r.layer)
            std::fprintf(ctx.progress, "layer %s %.17g\n", key.c_str(),
                         value);
        std::fclose(ctx.progress);
    });
    close(fds[1]);

    Rep rep;
    bool complete = false;
    double keptSetupS = 0.0;
    std::uint64_t retired = 0;
    std::FILE *in = fdopen(fds[0], "r");
    char line[512];
    while (std::fgets(line, sizeof(line), in)) {
        char key[256];
        double a = 0.0;
        unsigned long long b = 0, c = 0;
        if (std::sscanf(line, "op %lf %llu", &a, &b) == 2) {
            rep.opMs.push_back(a);
            retired = b;
        } else if (std::sscanf(line, "setup %lf %lf", &a,
                               &keptSetupS) == 2) {
            rep.setupS = a;
        } else if (std::sscanf(line, "rep %lf %llu %llu", &a, &b, &c) ==
                   3) {
            rep.wallS = a;
            rep.instructions = b;
            rep.digest = c;
            complete = true;
        } else if (std::sscanf(line, "layer %255s %lf", key, &a) == 2) {
            rep.layer[key] = a;
        }
    }
    std::fclose(in);
    int status = 0;
    struct rusage ru;
    wait4(pid, &status, 0, &ru);
    rep.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    rep.ops = rep.opMs.size();
    if (!complete || !exitedCleanly(status)) {
        ++rep.ops;
        rep.failed = 1;
        rep.instructions = retired;
        rep.wallS = keptSetupS;
        for (double ms : rep.opMs)
            rep.wallS += ms / 1e3;
        Digest d;
        d.str("died after op");
        d.num(static_cast<std::uint64_t>(rep.opMs.size()));
        rep.digest = d.value();
        std::printf("FAIL: %s rep died after %zu ops (repro: --workload "
                    "%s --seed %llu)\n",
                    ctx.opt.workload.c_str(), rep.opMs.size(),
                    ctx.opt.workload.c_str(),
                    static_cast<unsigned long long>(ctx.opt.seed));
    }
    return rep;
}

/**
 * Run one registry server workload on 2 cores in a forked child, so that
 * the known barrier panic ends the child instead of the run. The point is
 * never timed. Returns whether it completed.
 */
bool
registryPoint(const Options &opt, const char *name)
{
    const pid_t pid = spawn([&] {
        SimulationSpec spec;
        spec.base = SecPbSystem::configFor(Scheme::Cobcm,
                                           serverWorkloadProfile());
        spec.cores = 2;
        spec.shards = MixShards;
        spec.instructions = RegistryInstr;
        spec.seed = opt.seed;
        spec.workload = name;
        std::vector<std::unique_ptr<WorkloadGenerator>> gens;
        std::vector<WorkloadGenerator *> raw;
        for (unsigned c = 0; c < spec.cores; ++c) {
            gens.push_back(makeWorkload(spec.workload, spec.instructions,
                                        spec.seed + c));
            raw.push_back(gens.back().get());
        }
        Simulation sim(spec);
        const MultiCoreResult r = sim.run(raw);
        Digest d;
        for (const SimulationResult &c : r.perCore)
            d.result(c);
        d.statTree(sim);
        std::printf("registry point %s: ok, %llu instructions, sim_digest "
                    "%016llx\n",
                    name, static_cast<unsigned long long>(r.totalInstructions),
                    static_cast<unsigned long long>(d.value()));
    });
    int status = 0;
    waitpid(pid, &status, 0);
    if (exitedCleanly(status))
        return true;
    std::printf("KNOWN DEFECT: registry point %s (cobcm, 2 cores, %u "
                "shards, %llu instructions per core, seed %llu) %s %d "
                "(repro: --workload multicore_mix --seed %llu --reps 1)\n",
                name, MixShards,
                static_cast<unsigned long long>(RegistryInstr),
                static_cast<unsigned long long>(opt.seed),
                WIFSIGNALED(status) ? "killed by signal" : "exited with",
                WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status),
                static_cast<unsigned long long>(opt.seed));
    return false;
}

// ------------------------------------------------------------------
// Measurement loop and report.
// ------------------------------------------------------------------

/**
 * Peak resident set of this process image since the last
 * resetPeakRss(). ru_maxrss would do for a whole run, except that Linux
 * carries it across fork + exec: launched from a Python runner it
 * reports the runner's RSS when that is larger. VmHWM is reset at exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Start each rep like a fresh process: hand the previous reps' freed
 * heap back to the kernel (otherwise shard threads' malloc arenas keep
 * growing and the peak depends on how many reps ran before), then
 * restart the VmHWM high-water mark (Linux >= 4.0) so the rep reports its
 * own peak. Where that is not allowed the mark keeps the run's peak.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

using RepFn = std::function<Rep(Ctx &)>;

/** Repeat reps until @p budget seconds are spent and the run holds at
 *  least @p minReps reps and @p minOps ops (or exactly --reps reps). */
std::vector<Rep>
measure(Ctx &ctx, const RepFn &fn, double budget, std::size_t minReps,
        std::uint64_t minOps)
{
    std::vector<Rep> reps;
    std::uint64_t ops = 0;
    std::vector<double> walls;
    const Clock::time_point t0 = Clock::now();
    const auto runRep = [&] {
        resetPeakRss();
        reps.push_back(fn(ctx));
        if (reps.back().peakRssMb == 0.0)
            reps.back().peakRssMb = peakRssMb();
    };
    if (ctx.opt.reps) {
        while (reps.size() < ctx.opt.reps)
            runRep();
        return reps;
    }
    for (;;) {
        const bool minimumMet = reps.size() >= minReps && ops >= minOps;
        // Stop when the next rep would end past the budget.
        if (minimumMet && since(t0) + median(walls) > budget)
            break;
        runRep();
        ops += reps.back().ops;
        walls.push_back(reps.back().wallS);
    }
    return reps;
}

/** Nearest-rank percentile and how many samples lie beyond it. */
struct Percentile
{
    double value;
    std::uint64_t beyond;
};

Percentile
percentile(const std::vector<double> &sorted, double p)
{
    const auto n = static_cast<std::uint64_t>(sorted.size());
    auto rank = static_cast<std::uint64_t>(std::ceil(p * n));
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    return {sorted[rank - 1], n - rank};
}


/** The run's metrics: printed as they are added, and kept for the
 *  result line. */
class Fields
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        panic_if(!std::isfinite(value), "metric %s is not finite",
                 name.c_str());
        _metrics.push_back({name, value, unit});
        std::printf("  %-36s %16.6f %s\n", name.c_str(), value, unit);
    }

    /** {"name": {"value": v, "unit": u}, ...} */
    void
    write(JsonWriter &w) const
    {
        w.beginObject();
        for (const Metric &m : _metrics) {
            w.key(m.name);
            w.beginObject();
            w.field("value", m.value);
            w.field("unit", m.unit);
            w.endObject();
        }
        w.endObject();
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Metric> _metrics;
};

/** Per-layer metrics of the traced reps; @p shardSpeedup is 0 outside
 *  multicore_mix. */
void
layerMetrics(Fields &f, const std::vector<Rep> &traced, double overheadPct,
             double shardSpeedup)
{
    const auto med = [&](const std::string &key) {
        std::vector<double> v;
        for (const Rep &r : traced) {
            const auto it = r.layer.find(key);
            v.push_back(it == r.layer.end() ? 0.0 : it->second);
        }
        return median(v);
    };
    // Counts are exact and repeat across reps; read them from one.
    const std::map<std::string, double> &c = traced.front().layer;
    const auto count = [&](const std::string &key) {
        const auto it = c.find(key);
        return it == c.end() ? 0.0 : it->second;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto stat = [&](const char *path) {
        return count(std::string("stat.") + path);
    };

    const double nextS = med("workload.next_s");
    const double calls = count("workload.next_calls");
    const double events = count("sim.events");
    const double runSelf = med("span.core.run") - nextS;

    f.add("workload.next_s", nextS, "s");
    f.add("workload.ns_per_op", ratio(nextS * 1e9, calls), "ns");
    f.add("core.construct_s", med("span.core.construct"), "s");
    f.add("core.run_self_s", runSelf, "s");
    const double epochs = count("core.multicore.epochs");
    f.add("core.multicore.epochs", epochs, "count");
    f.add("core.multicore.migrations", count("core.multicore.migrations"),
          "count");
    f.add("core.multicore.remote_read_flushes",
          count("core.multicore.remote_read_flushes"), "count");
    f.add("core.multicore.first_touches",
          count("core.multicore.first_touches"), "count");
    f.add("core.multicore.host_us_per_epoch",
          ratio(med("core.multicore.run_s") * 1e6, epochs), "us");
    f.add("core.multicore.shard_speedup",
          shardSpeedup, "ratio");
    f.add("sim.events", events, "count");
    f.add("sim.host_ns_per_event", ratio(runSelf * 1e9, events), "ns");
    f.add("recovery.crash_now_s", med("span.recovery.crash_now"), "s");
    f.add("recovery.reverify_s", med("span.recovery.reverify"), "s");
    f.add("recovery.oracle_blocks", count("recovery.oracle_blocks"),
          "count");
    f.add("recovery.oracle_persists", count("recovery.oracle_persists"),
          "count");
    f.add("recovery.entries_drained", count("recovery.entries_drained"),
          "count");
    f.add("recovery.bmt_levels_walked",
          count("recovery.bmt_levels_walked"), "count");
    f.add("recovery.blocks_checked", count("recovery.blocks_checked"),
          "count");
    f.add("recovery.prefix_violations",
          count("recovery.prefix_violations"), "count");
    f.add("fault.tamper_s", med("span.fault.tamper"), "s");
    f.add("fault.tampers_injected", count("fault.tampers_injected"),
          "count");
    f.add("fault.tampers_detected", count("fault.tampers_detected"),
          "count");
    f.add("energy.crash_j", count("energy.crash_j"), "J");
    f.add("energy.battery_exhausted", count("energy.battery_exhausted"),
          "count");
    f.add("stats.serialize_s", med("span.stats.serialize"), "s");

    f.add("cpu.instructions", stat("cpu.instructions"), "count");
    f.add("cpu.stores", stat("cpu.stores"), "count");
    f.add("cpu.sb_stalls", stat("cpu.sb_stalls"), "count");
    f.add("secpb.persists", stat("secpb.persists"), "count");
    f.add("secpb.allocs", stat("secpb.allocs"), "count");
    f.add("secpb.coalesce_ratio",
          ratio(stat("secpb.coalesced_hits"), stat("secpb.persists")),
          "ratio");
    f.add("secpb.full_rejects", stat("secpb.full_rejects"), "count");
    f.add("secpb.drained_entries", stat("secpb.drained_entries"), "count");
    f.add("secpb.battery_stalls", stat("secpb.battery_stalls"), "count");
    f.add("crypto.otps", stat("crypto.otp_generated"), "count");
    f.add("crypto.macs", stat("crypto.mac_generated"), "count");
    f.add("crypto.ciphertexts", stat("crypto.ciphertexts"), "count");
    f.add("metadata.root_updates", stat("bmt.root_updates"), "count");
    f.add("metadata.merge_ratio",
          ratio(stat("bmt.merged_updates"),
                stat("bmt.merged_updates") + stat("bmt.root_updates")),
          "ratio");
    f.add("metadata.full_walks", stat("bmt.full_walks"), "count");
    const auto hitRate = [&](const std::string &cache) {
        const double hits = count("stat." + cache + ".hits");
        return ratio(hits, hits + count("stat." + cache + ".misses"));
    };
    f.add("metadata.ctr_hit_rate", hitRate("ctr_cache"), "ratio");
    f.add("metadata.bmt_hit_rate", hitRate("bmt_cache"), "ratio");
    f.add("metadata.mac_hit_rate", hitRate("mac_cache"), "ratio");
    f.add("mem.wpq_pushes", stat("wpq.pushes"), "count");
    f.add("mem.wpq_full_rejects", stat("wpq.full_rejects"), "count");
    f.add("mem.pcm_reads", stat("pcm.reads"), "count");
    f.add("mem.pcm_writes", stat("pcm.writes"), "count");
    f.add("trace.overhead_pct", overheadPct, "%");
}

/** Same digest in every rep, else the run is wrong. */
bool
digestsAgree(const std::vector<Rep> &reps, std::uint64_t expect)
{
    for (std::size_t i = 0; i < reps.size(); ++i) {
        if (reps[i].digest != expect) {
            std::printf("MISMATCH: rep %zu sim_digest %016llx != %016llx\n",
                        i, static_cast<unsigned long long>(reps[i].digest),
                        static_cast<unsigned long long>(expect));
            return false;
        }
    }
    return true;
}

int
runWorkload(const Options &opt)
{
    Ctx ctx(opt);
    RepFn fn;
    if (opt.workload == "fig6_grid") {
        fn = fig6Rep;
    } else if (opt.workload == "paper_point") {
        fn = [](Ctx &c) {
            return slicedRep(c, buildPaperPoint,
                             c.opt.scale.paperSliceTicks);
        };
    } else if (opt.workload == "crash_soak") {
        fn = soakRep;
    } else if (opt.workload == "multicore_mix") {
        fn = [](Ctx &c) {
            return isolatedRep(c, [](Ctx &child) {
                return slicedRep(child, buildMulticoreMix,
                                 child.opt.scale.mcSliceTicks);
            });
        };
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }

    std::printf("workload %s seed %llu seconds %.1f trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);

    const std::vector<Rep> timed =
        opt.trace ? measure(ctx, fn, opt.seconds / 2, 2, 0)
                  : measure(ctx, fn, opt.seconds, 3, MinTimedOps);
    const std::uint64_t expect = timed.front().digest;
    bool correct = digestsAgree(timed, expect);

    std::vector<Rep> traced;
    double shardSpeedup = 0.0;
    if (opt.trace) {
        ctx.spans.enable();
        traced = measure(ctx, fn, opt.seconds / 2, 2, 0);
        correct = digestsAgree(traced, expect) && correct;
    }

    if (opt.workload == "multicore_mix") {
        // Shard count is host parallelism only: the sharded machine must
        // give the same digest. Traced runs also time it for the speedup.
        ctx.shards = MixShards;
        const Rep sharded = fn(ctx);
        ctx.shards = 1;
        if (sharded.digest != expect) {
            std::printf("MISMATCH: shards=%u sim_digest %016llx != shards=1 "
                        "%016llx\n",
                        MixShards,
                        static_cast<unsigned long long>(sharded.digest),
                        static_cast<unsigned long long>(expect));
            correct = false;
        }
        if (opt.trace) {
            std::vector<double> walls;
            for (const Rep &r : traced)
                walls.push_back(r.wallS);
            shardSpeedup = mean(walls) / sharded.wallS;
        }
    }

    std::uint64_t ops = 0, failed = 0;
    std::vector<double> allWalls;
    for (const Rep &r : timed) {
        ops += r.ops;
        failed += r.failed;
        allWalls.push_back(r.wallS);
    }
    // Every rep does the same work (the digests agree), so rep-to-rep
    // differences are the host's: neighbours on a shared host slow the
    // memory-bound simulator by up to 70% for seconds to minutes. The time
    // metrics therefore come from the run's fastest reps, the ones least
    // disturbed: a third of them, and enough for MinTimedOps op samples.
    std::vector<const Rep *> fastest;
    for (const Rep &r : timed)
        fastest.push_back(&r);
    std::sort(fastest.begin(), fastest.end(),
              [](const Rep *a, const Rep *b) { return a->wallS < b->wallS; });
    std::size_t keep = 0;
    std::uint64_t keptOps = 0;
    while (keep < fastest.size() &&
           (keep * 3 < fastest.size() || keptOps < MinTimedOps))
        keptOps += fastest[keep++]->opMs.size();
    fastest.resize(opt.reps ? fastest.size() : keep);

    double instructions = 0.0;
    std::vector<double> walls, setups, rss, opMs;
    for (const Rep *r : fastest) {
        instructions += static_cast<double>(r->instructions);
        walls.push_back(r->wallS);
        setups.push_back(r->setupS);
        rss.push_back(r->peakRssMb);
        opMs.insert(opMs.end(), r->opMs.begin(), r->opMs.end());
    }
    std::sort(opMs.begin(), opMs.end());
    // The registry points probe the known barrier panic. They are counted
    // apart from the workload's ops and never timed, so the probe shows
    // the defect on every run without making the timed workload fail,
    // and a fix of the panic moves only the probe's count.
    std::uint64_t probes = 0, probePanics = 0;
    if (opt.workload == "multicore_mix") {
        for (const char *name : RegistryPoints) {
            ++probes;
            probePanics += !registryPoint(opt, name);
        }
        std::printf("known defect probe: %llu of %llu registry points "
                    "panicked\n",
                    static_cast<unsigned long long>(probePanics),
                    static_cast<unsigned long long>(probes));
    }

    std::printf("rep wall_s:");
    for (double w : allWalls)
        std::printf(" %.4f", w);
    std::printf("\nfastest reps' peak_rss_mb:");
    for (double m : rss)
        std::printf(" %.1f", m);
    std::printf("\n");
    std::printf("reps %zu, fastest reps %zu, ops %llu, ops_failed %llu, "
                "op_samples %zu, sim_digest %016llx\n",
                timed.size(), fastest.size(),
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(failed), opMs.size(),
                static_cast<unsigned long long>(expect));

    Fields f;
    if (!opt.trace) {
        f.add("wall_s", mean(walls), "s");
        f.add("minstr_per_s",
              instructions / (mean(walls) * walls.size()) / 1e6,
              "Minstr/s");
        f.add("setup_s", median(setups), "s");
        f.add("peak_rss_mb", median(rss), "MB");
        // Op latency percentiles are printed, each only with ten samples
        // beyond it, but are not metrics: when neighbours load the host
        // the heavy and the very short ops slow down more than whole reps
        // do, and over ten runs they spread past the bound (IQR over
        // median: fig6_grid p90 25%, p99 28%; multicore_mix p50 30%)
        // while wall_s stayed within it.
        for (const auto &[name, p] :
             {std::pair{"op_p50_ms", 0.50}, std::pair{"op_p90_ms", 0.90},
              std::pair{"op_p99_ms", 0.99}}) {
            const Percentile q = percentile(opMs, p);
            if (q.beyond < 10)
                std::printf("  %-36s omitted: %llu samples beyond\n", name,
                            static_cast<unsigned long long>(q.beyond));
            else
                std::printf("  %-36s %14.6f ms (%llu samples beyond; not "
                            "a metric)\n",
                            name, q.value,
                            static_cast<unsigned long long>(q.beyond));
        }
    } else {
        std::vector<double> tracedWalls;
        for (const Rep &r : traced)
            tracedWalls.push_back(r.wallS);
        const double overhead =
            100.0 * (mean(tracedWalls) / mean(allWalls) - 1.0);
        std::printf("tracing overhead %.2f%% (traced rep %.4f s vs "
                    "untraced %.4f s)\n",
                    overhead, mean(tracedWalls), mean(allWalls));
        layerMetrics(f, traced, overhead, shardSpeedup);
        if (!opt.spansOut.empty())
            ctx.spans.write(opt.spansOut);
    }

    char digestHex[17];
    std::snprintf(digestHex, sizeof(digestHex), "%016llx",
                  static_cast<unsigned long long>(expect));
    std::ostringstream line;
    JsonWriter w(line, /*pretty=*/false);
    w.beginObject();
    w.field("workload", opt.workload);
    w.field("correct", correct);
    w.field("ops", ops);
    w.field("ops_failed", failed);
    w.field("known_defect_probes", probes);
    w.field("known_defect_panics", probePanics);
    w.field("op_samples", static_cast<std::uint64_t>(opMs.size()));
    w.field("sim_digest", digestHex);
    w.key("metrics");
    f.write(w);
    w.endObject();
    std::printf("%s\n", line.str().c_str());
    return correct ? 0 : 1;
}

std::uint64_t
parseU64(const char *flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v, &end, 10);
    fatal_if(!*v || *end || errno || v[0] == '-',
             "%s '%s': expected a non-negative integer", flag, v);
    return x;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        fatal_if(i + 1 >= argc, "%s needs a value", flag.c_str());
        const char *v = argv[++i];
        if (flag == "--workload") {
            opt.workload = v;
        } else if (flag == "--seed") {
            opt.seed = parseU64("--seed", v);
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(parseU64("--seconds", v));
        } else if (flag == "--trace") {
            opt.trace = parseU64("--trace", v) != 0;
        } else if (flag == "--scale") {
            fatal_if(std::strcmp(v, "full") && std::strcmp(v, "tiny"),
                     "--scale '%s': expected full or tiny", v);
            opt.scale = std::strcmp(v, "tiny") ? FullScale : TinyScale;
        } else if (flag == "--reps") {
            opt.reps = parseU64("--reps", v);
        } else if (flag == "--spans-out") {
            opt.spansOut = v;
        } else {
            fatal("unknown flag '%s'", flag.c_str());
        }
    }
    return runWorkload(opt);
}
