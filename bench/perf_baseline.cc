/**
 * @file
 * Host-performance baseline harness: the regression gate that keeps the
 * simulator "as fast as the hardware allows".
 *
 * Measures wall-clock performance of the simulator's inner loop from two
 * angles and emits a BENCH_<label>.json document (JsonWriter, schema
 * "secpb.perf_baseline" v1) that tools/compare_bench.py diffs against a
 * previous baseline:
 *
 *  - fig6_smoke: the CI smoke slice of the Figure 6 sweep (CM + COBCM
 *    across every SPEC profile), timed end to end. This exercises the
 *    whole stack -- kernel, walker, SecPB, caches, PCM -- exactly the way
 *    every experiment in src/exp/ does.
 *  - event_burst / event_chain: the event-kernel microbenchmarks. Burst
 *    schedules waves of events and drains them (deep heap, stresses
 *    sift + pool recycling); chain keeps one self-rescheduling event in
 *    flight (stresses the schedule/pop round trip). Reported in millions
 *    of dispatched events per second.
 *  - walker_update: pipelined BMT root updates against a warm metadata
 *    cache, in millions of walks per second (walk-path caching shows up
 *    here).
 *
 * Every component runs --reps times and reports the best rep (minimum
 * wall time), the standard noise filter for host-side timing.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metadata/walker.hh"
#include "stats/json.hh"
#include "workload/synthetic.hh"

using namespace secpb;
using namespace secpb::bench;

namespace
{

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-reps wall time of @p body (seconds). */
template <typename Body>
double
best_of(unsigned reps, Body &&body)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        const double t0 = now_s();
        body();
        const double dt = now_s() - t0;
        if (r == 0 || dt < best)
            best = dt;
    }
    return best;
}

/** The CI smoke slice of fig6: CM + COBCM across every profile. */
double
bench_fig6_smoke(std::uint64_t instr, std::uint64_t seed, unsigned reps)
{
    const Scheme schemes[] = {Scheme::Cm, Scheme::Cobcm};
    return best_of(reps, [&] {
        for (const BenchmarkProfile &p : spec2006Profiles())
            for (Scheme s : schemes)
                runOne(s, p, instr, 32, BmfMode::None, seed);
    });
}

/**
 * The full-scale fig6 point: one COBCM run at the paper's 250M-instruction
 * horizon (gamess, the heaviest-drain profile). Unlike the smoke slice
 * this runs long enough for every hot table to reach steady-state
 * occupancy, so allocator and hash-table pathologies that a 20k-instr rep
 * amortizes away dominate the wall clock. One rep only -- at this horizon
 * a single run is past timing noise and CI budgets are finite.
 */
double
bench_fig6_full(std::uint64_t instr, std::uint64_t seed)
{
    return best_of(1, [&] {
        runOne(Scheme::Cobcm, profileByName("gamess"), instr, 32,
               BmfMode::None, seed);
    });
}

/**
 * The server-workload smoke slice: the heavy-traffic generators through
 * the full stack on the server machine model, BBB vs COBCM. This is the
 * path the workload front end adds -- registry dispatch, the queue
 * generators, the multi-ASID plumbing -- none of which fig6 exercises.
 */
double
bench_workload_smoke(std::uint64_t instr, std::uint64_t seed,
                     unsigned reps)
{
    const char *specs[] = {"kv_wal", "fs_journal", "zipf_mix:tenants=256"};
    const Scheme schemes[] = {Scheme::Bbb, Scheme::Cobcm};
    return best_of(reps, [&] {
        for (const char *wl : specs) {
            for (Scheme s : schemes) {
                SimulationSpec spec;
                spec.base =
                    SecPbSystem::configFor(s, serverWorkloadProfile());
                spec.instructions = instr;
                spec.seed = seed;
                Simulation sim(spec);
                auto gen = makeWorkload(wl, instr, seed);
                sim.run(*gen);
            }
        }
    });
}

/**
 * The recovery-window smoke slice: crash four zoo endpoints (lazy SecPB,
 * counter write-through, whole-hierarchy flush, and the triad rebuild
 * path) at quarter-run and time drain + recovery end to end. This is the
 * crash path none of the run-to-end slices touch.
 */
double
bench_recovery_window_smoke(std::uint64_t instr, std::uint64_t seed,
                            unsigned reps)
{
    const Scheme schemes[] = {Scheme::Cobcm, Scheme::Secpm, Scheme::Triad,
                              Scheme::Eadr};
    const BenchmarkProfile &prof = profileByName("gamess");
    return best_of(reps, [&] {
        for (Scheme s : schemes) {
            SimulationSpec spec;
            spec.base = SecPbSystem::configFor(s, prof);
            spec.instructions = instr;
            spec.seed = seed;
            Simulation sim(spec);
            SyntheticGenerator gen(prof, instr, seed);
            sim.start(gen);
            sim.runUntil(instr / 4);
            sim.crashNow();
        }
    });
}

/** Per-core private-region writer for the shard-scaling probe: cores
 *  never share a page, so the epoch engine's parallel section dominates
 *  and the measured ratio isolates host-thread scaling. */
class PrivateWriter : public WorkloadGenerator
{
  public:
    PrivateWriter(std::uint64_t instructions, Addr base, std::uint64_t seed)
        : _budget(instructions), _base(base), _rng(seed)
    {}

    bool
    next(TraceOp &op) override
    {
        if (_emitted >= _budget)
            return false;
        if (_rng.chance(0.08)) {
            ++_emitted;
            op.kind = TraceOp::Kind::Store;
            op.addr = _base +
                      blockAlign(_rng.below(512) * BlockSize) +
                      8 * _rng.below(8);
            op.value = _rng.next();
            return true;
        }
        std::uint32_t count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(16, _budget - _emitted));
        _emitted += count;
        op.kind = TraceOp::Kind::Instr;
        op.count = count;
        return true;
    }

  private:
    std::uint64_t _budget;
    std::uint64_t _emitted = 0;
    Addr _base;
    Rng _rng;
};

/**
 * One 4-core COBCM run through the epoch-barrier engine at @p shards
 * host threads. Identical simulated behavior at every shard count (that
 * is the engine's contract, gated elsewhere); what this measures is the
 * wall-clock ratio, reported as shard_speedup = serial / sharded.
 */
double
bench_shard_run(std::uint64_t instr_per_core, std::uint64_t seed,
                unsigned shards, unsigned reps)
{
    return best_of(reps, [&] {
        SimulationSpec spec;
        spec.base.scheme = Scheme::Cobcm;
        spec.cores = 4;
        spec.shards = shards;
        // Coarse epochs amortize the barrier; private pages mean the
        // grant queue is empty past the first-touch epoch.
        spec.epochTicks = 4096;
        Simulation sim(spec);
        std::vector<std::unique_ptr<PrivateWriter>> gens;
        std::vector<WorkloadGenerator *> raw;
        for (unsigned c = 0; c < spec.cores; ++c) {
            gens.push_back(std::make_unique<PrivateWriter>(
                instr_per_core, 0x4000000ULL * (c + 1), seed + c));
            raw.push_back(gens.back().get());
        }
        sim.run(raw);
    });
}

/** Pure generator throughput: drain KV/WAL, no simulator attached. */
double
bench_workload_gen(std::uint64_t instructions, unsigned reps)
{
    std::uint64_t ops = 0;
    const double secs = best_of(reps, [&] {
        auto gen = makeWorkload("kv_wal", instructions, 1);
        TraceOp op;
        std::uint64_t n = 0;
        while (gen->next(op))
            ++n;
        ops = n;
    });
    return static_cast<double>(ops) / secs / 1e6;
}

/** Waves of events: schedule a burst, drain it, repeat. */
double
bench_event_burst(std::uint64_t waves, std::uint64_t per_wave,
                  unsigned reps)
{
    const double secs = best_of(reps, [&] {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (std::uint64_t w = 0; w < waves; ++w) {
            const Tick base = eq.curTick();
            for (std::uint64_t i = 0; i < per_wave; ++i)
                eq.schedule(base + 1 + i % 97, [&sink] { ++sink; });
            eq.run();
        }
        if (sink != waves * per_wave)
            fatal("event_burst dropped events (%llu != %llu)",
                  static_cast<unsigned long long>(sink),
                  static_cast<unsigned long long>(waves * per_wave));
    });
    return static_cast<double>(waves * per_wave) / secs / 1e6;
}

/** One self-rescheduling event: the schedule/pop round trip. */
double
bench_event_chain(std::uint64_t length, unsigned reps)
{
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *left;
        void
        operator()()
        {
            if (--*left > 0)
                eq->scheduleIn(3, *this);
        }
    };
    const double secs = best_of(reps, [&] {
        EventQueue eq;
        std::uint64_t left = length;
        eq.schedule(0, Chain{&eq, &left});
        eq.run();
        if (left != 0)
            fatal("event_chain terminated early");
    });
    return static_cast<double>(length) / secs / 1e6;
}

/** Pipelined BMT root updates with a warm node cache. */
double
bench_walker_update(std::uint64_t updates, unsigned reps)
{
    const double secs = best_of(reps, [&] {
        EventQueue eq;
        StatGroup g("perf");
        MetadataLayout layout{8ULL << 30};
        BonsaiMerkleTree tree(layout.numPages());
        PcmConfig pcm_cfg{220, 600, 32, 64, 128};
        PcmModel pcm(eq, pcm_cfg, g);
        MetadataCache bmt_cache("bmt$", CacheGeometry{128 * 1024, 8, 64},
                                2, pcm, g, false);
        CryptoLatencies lat;
        WalkerConfig wcfg;
        BmtWalker walker(eq, wcfg, layout, tree, bmt_cache, pcm, lat, g);
        // 64 pages cycle through the pipe: in-flight walks merge rarely,
        // the node cache stays warm after the first lap.
        for (std::uint64_t i = 0; i < updates; ++i) {
            walker.update((i % 64) * PageSize,
                          static_cast<Digest>(i * 0x9e3779b97f4a7c15ULL));
            if ((i & 1023) == 1023)
                eq.run();
        }
        eq.run();
    });
    return static_cast<double>(updates) / secs / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    std::string json_path;
    std::string label = "local";
    unsigned reps = 3;
    std::uint64_t instr = 20'000;
    std::uint64_t seed = 7;
    bool fig6_full = false;
    std::uint64_t fig6_full_instr = 250'000'000;
    std::uint64_t shard_instr = 250'000;  ///< Per core, 4 cores.
    unsigned shard_count = 4;

    auto need = [&](int i) -> const char * {
        fatal_if(i + 1 >= argc, "perf_baseline: flag %s needs a value",
                 argv[i]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json") {
            json_path = need(i);
            ++i;
        } else if (a == "--label") {
            label = need(i);
            ++i;
        } else if (a == "--reps") {
            reps = static_cast<unsigned>(
                std::max(1ULL, std::strtoull(need(i), nullptr, 10)));
            ++i;
        } else if (a == "--instr") {
            instr = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--seed") {
            seed = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--fig6-full") {
            fig6_full = true;
        } else if (a == "--fig6-full-instr") {
            fig6_full_instr = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--shard-instr") {
            shard_instr = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--shards") {
            shard_count = static_cast<unsigned>(
                std::max(1ULL, std::strtoull(need(i), nullptr, 10)));
            ++i;
        } else if (a == "--jobs") {
            // Accepted for CLI uniformity with the sweep binaries, but
            // wall-clock timing is inherently single-threaded here.
            need(i);
            ++i;
        } else if (a == "--help" || a == "-h") {
            std::printf(
                "usage: perf_baseline [--json PATH] [--label NAME]\n"
                "                     [--reps N] [--instr N] [--seed N]\n"
                "                     [--fig6-full] [--fig6-full-instr N]\n"
                "                     [--shard-instr N] [--shards N]\n"
                "Times the fig6 smoke sweep, the event-kernel\n"
                "microbenches, the BMT walker, and the multi-core shard\n"
                "engine (4 cores at --shards 1 vs N host threads,\n"
                "reported as shard_speedup); writes a\n"
                "secpb.perf_baseline JSON for tools/compare_bench.py.\n"
                "--fig6-full adds one paper-scale (250M instr) COBCM\n"
                "point, reported as fig6_full_wall_s / fig6_full_mips.\n");
            return 0;
        } else {
            fatal("perf_baseline: unknown flag '%s' (try --help)",
                  a.c_str());
        }
    }

    constexpr std::uint64_t kWaves = 500;
    constexpr std::uint64_t kPerWave = 2'000;
    constexpr std::uint64_t kChain = 1'000'000;
    constexpr std::uint64_t kWalks = 300'000;

    std::fprintf(stderr, "perf_baseline [%s]: reps=%u instr=%llu\n",
                 label.c_str(), reps,
                 static_cast<unsigned long long>(instr));

    const double fig6_s = bench_fig6_smoke(instr, seed, reps);
    std::fprintf(stderr, "  fig6_smoke_wall_s   %.3f\n", fig6_s);
    const double wl_s = bench_workload_smoke(instr, seed, reps);
    std::fprintf(stderr, "  workload_smoke_wall_s %.3f\n", wl_s);
    const double rw_s = bench_recovery_window_smoke(instr, seed, reps);
    std::fprintf(stderr, "  recovery_window_wall_s %.3f\n", rw_s);
    const double gen_mops = bench_workload_gen(2'000'000, reps);
    std::fprintf(stderr, "  workload_gen_mops   %.2f\n", gen_mops);
    const double burst = bench_event_burst(kWaves, kPerWave, reps);
    std::fprintf(stderr, "  event_burst_mops    %.2f\n", burst);
    const double chain = bench_event_chain(kChain, reps);
    std::fprintf(stderr, "  event_chain_mops    %.2f\n", chain);
    const double walks = bench_walker_update(kWalks, reps);
    std::fprintf(stderr, "  walker_update_mops  %.2f\n", walks);
    const double shard1_s = bench_shard_run(shard_instr, seed, 1, reps);
    const double shardN_s =
        bench_shard_run(shard_instr, seed, shard_count, reps);
    const double shard_speedup = shardN_s > 0.0 ? shard1_s / shardN_s : 0.0;
    std::fprintf(stderr,
                 "  shard_serial_wall_s %.3f\n"
                 "  shard_wall_s        %.3f (%ux, speedup %.2f)\n",
                 shard1_s, shardN_s, shard_count, shard_speedup);
    double fig6_full_s = 0.0;
    double fig6_full_mips = 0.0;
    if (fig6_full) {
        fig6_full_s = bench_fig6_full(fig6_full_instr, seed);
        fig6_full_mips = static_cast<double>(fig6_full_instr) /
                         fig6_full_s / 1e6;
        std::fprintf(stderr, "  fig6_full_wall_s    %.3f (%.2f Minstr/s)\n",
                     fig6_full_s, fig6_full_mips);
    }

    if (json_path.empty())
        return 0;

    std::ofstream out(json_path);
    fatal_if(!out, "perf_baseline: cannot open --json path '%s'",
             json_path.c_str());
    JsonWriter w(out);
    w.beginObject();
    w.field("schema", "secpb.perf_baseline");
    w.field("version", 1);
    w.field("label", label);
    w.key("config");
    w.beginObject();
    w.field("reps", reps);
    w.field("instr", instr);
    w.field("seed", seed);
    w.field("event_burst_events", kWaves * kPerWave);
    w.field("event_chain_length", kChain);
    w.field("walker_updates", kWalks);
    w.field("shard_instr", shard_instr);
    w.field("shards", shard_count);
    if (fig6_full)
        w.field("fig6_full_instr", fig6_full_instr);
    w.endObject();
    w.key("metrics");
    w.beginObject();
    w.field("fig6_smoke_wall_s", fig6_s);
    w.field("workload_smoke_wall_s", wl_s);
    w.field("recovery_window_wall_s", rw_s);
    w.field("workload_gen_mops", gen_mops);
    w.field("event_burst_mops", burst);
    w.field("event_chain_mops", chain);
    w.field("walker_update_mops", walks);
    w.field("shard_serial_wall_s", shard1_s);
    w.field("shard_wall_s", shardN_s);
    w.field("shard_speedup", shard_speedup);
    if (fig6_full) {
        w.field("fig6_full_wall_s", fig6_full_s);
        w.field("fig6_full_mips", fig6_full_mips);
    }
    w.endObject();
    w.endObject();
    out << "\n";
    std::fprintf(stderr, "perf_baseline: wrote %s\n", json_path.c_str());
    return 0;
}
