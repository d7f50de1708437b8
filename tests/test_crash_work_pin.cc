/**
 * @file
 * Golden pin of the per-scheme crash-work model: one fixed scripted
 * store stream on every scheme (triad at levels 1, 2 and 3), crashed
 * mid-run and after completion. Each row records the worst-entry gate
 * price, predictCrashDrainWork() and the work crashNow() performed, so
 * every per-scheme crash decision -- persist domain, BMT depth walked
 * and rebuilt, hierarchy flush, worst in-flight entry -- is held to the
 * recorded values on all thirteen schemes at once.
 *
 * On a mismatch the test prints the full measured table; a deliberate
 * model change re-records it from that output.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/system.hh"
#include "workload/scripted.hh"

using namespace secpb;

namespace
{

/** 48 stores over 16 blocks on 8 pages: drains, coalescing, and
 *  entries resident at either crash point. */
ScriptedGenerator
pinnedStream()
{
    ScriptedGenerator gen;
    for (int i = 0; i < 48; ++i) {
        const Addr page = static_cast<Addr>(i % 8) * 4096;
        const Addr block = static_cast<Addr>((i / 3) % 2) * BlockSize;
        gen.store(page + block + 8 * (i % 8),
                  0xC0DE0000u + static_cast<std::uint64_t>(i))
            .instr(20);
    }
    return gen;
}

std::string
fmtWork(const CrashWork &w)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ent=%llu lvl=%llu flush=%llu rebuilt=%llu pm=%llu "
                  "E=%.17g",
                  static_cast<unsigned long long>(w.entriesDrained),
                  static_cast<unsigned long long>(w.bmtLevelsWalked),
                  static_cast<unsigned long long>(w.cacheLinesFlushed),
                  static_cast<unsigned long long>(w.bmtNodesRebuilt),
                  static_cast<unsigned long long>(w.pmBlockWrites),
                  w.energySpentJ);
    return buf;
}

/** Run the stream under @p spec, crash at @p crash_at (0 = after the
 *  run completes) and render one row. */
std::string
pinRow(const std::string &spec, Tick crash_at)
{
    SystemConfig cfg;
    cfg.scheme = parseSchemeSpec(spec, &cfg.secpb.params);
    cfg.secpb.numEntries = 8;
    cfg.pmDataBytes = 1ULL << 30;
    // A roomy physical battery with the adaptive gate attached: the
    // gate prices the scheme's worst entry, and the crash drain runs
    // under a bounded budget so the energy it spends is priced.
    cfg.battery.enabled = true;
    cfg.battery.provisionFraction = 4.0;
    cfg.battery.adaptive.enabled = true;

    SecPbSystem sys(cfg);
    ScriptedGenerator gen = pinnedStream();
    if (crash_at == 0) {
        sys.run(gen);
    } else {
        sys.start(gen);
        sys.runUntil(crash_at);
    }
    const CrashWork predicted = sys.secpb().predictCrashDrainWork();
    const double worst_j = sys.secpb().worstEntryEnergyJ();
    const CrashReport cr = sys.crashNow();
    EXPECT_TRUE(cr.recovered) << spec << " @ " << crash_at;

    char head[160];
    std::snprintf(head, sizeof(head), "%s@%llu worst=%.17g prov=%.17g",
                  spec.c_str(), static_cast<unsigned long long>(crash_at),
                  worst_j, cr.provisionedEnergyJ);
    return std::string(head) + " | pred " + fmtWork(predicted) +
           " | crash " + fmtWork(cr.work);
}

const char *const kSpecs[] = {
    "bbb",    "sp",     "sec_wt",         "nogap",
    "m",      "cm",     "bcm",            "obcm",
    "cobcm",  "secpm",  "triad:levels=1", "triad:levels=2",
    "triad:levels=3",   "eadr",           "stream",
};

// clang-format off
const char *const kGolden[] = {
    "bbb@1500 worst=1.4762879999999998e-06 prov=6.0615679999999997e-06"
    " | pred ent=4 lvl=0 flush=0 rebuilt=0 pm=4 E=0"
    " | crash ent=4 lvl=0 flush=0 rebuilt=0 pm=4 E=5.9051519999999993e-06",
    "bbb@0 worst=1.4762879999999998e-06 prov=6.0615679999999997e-06"
    " | pred ent=4 lvl=0 flush=0 rebuilt=0 pm=4 E=0"
    " | crash ent=4 lvl=0 flush=0 rebuilt=0 pm=4 E=5.9051519999999993e-06",
    "sp@1500 worst=7.1859199999999998e-07 prov=0.001567481856"
    " | pred ent=0 lvl=0 flush=0 rebuilt=0 pm=5 E=0"
    " | crash ent=2 lvl=12 flush=0 rebuilt=0 pm=10 E=9.2208256000000002e-05",
    "sp@0 worst=7.1859199999999998e-07 prov=0.001567481856"
    " | pred ent=0 lvl=0 flush=0 rebuilt=0 pm=19 E=0"
    " | crash ent=0 lvl=0 flush=0 rebuilt=0 pm=16 E=1.1497472e-05",
    "sec_wt@1500 worst=7.9880319999999996e-06 prov=2.7383606999999999e-05"
    " | pred ent=1 lvl=6 flush=0 rebuilt=0 pm=5 E=0"
    " | crash ent=1 lvl=6 flush=0 rebuilt=0 pm=5 E=3.9109568000000002e-05",
    "sec_wt@0 worst=7.9880319999999996e-06 prov=2.7383606999999999e-05"
    " | pred ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=2.3151360000000001e-05",
    "nogap@1500 worst=7.9880319999999996e-06 prov=2.7383606999999999e-05"
    " | pred ent=1 lvl=6 flush=0 rebuilt=0 pm=5 E=0"
    " | crash ent=1 lvl=6 flush=0 rebuilt=0 pm=5 E=3.9109568000000002e-05",
    "nogap@0 worst=7.9880319999999996e-06 prov=2.7383606999999999e-05"
    " | pred ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=2.3151360000000001e-05",
    "m@1500 worst=7.9880319999999996e-06 prov=6.6235383000000006e-05"
    " | pred ent=1 lvl=6 flush=0 rebuilt=0 pm=4 E=0"
    " | crash ent=1 lvl=6 flush=0 rebuilt=0 pm=4 E=4.3465535999999998e-05",
    "m@0 worst=7.9880319999999996e-06 prov=6.6235383000000006e-05"
    " | pred ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=4.3449599999999998e-05",
    "cm@1500 worst=7.9880319999999996e-06 prov=5.9416119000000001e-05"
    " | pred ent=1 lvl=6 flush=0 rebuilt=0 pm=4 E=0"
    " | crash ent=1 lvl=6 flush=0 rebuilt=0 pm=4 E=4.3465535999999998e-05",
    "cm@0 worst=7.9880319999999996e-06 prov=5.9416119000000001e-05"
    " | pred ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=4.3449599999999998e-05",
    "bcm@1500 worst=4.2746943999999996e-05 prov=0.00042438469500000002"
    " | pred ent=4 lvl=24 flush=0 rebuilt=0 pm=20 E=0"
    " | crash ent=4 lvl=24 flush=0 rebuilt=0 pm=20 E=0.00017865651200000001",
    "bcm@0 worst=4.2746943999999996e-05 prov=0.00042438469500000002"
    " | pred ent=4 lvl=24 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=24 flush=0 rebuilt=0 pm=28 E=0.00018248524799999998",
    "obcm@1500 worst=4.4666943999999998e-05 prov=0.00043484543100000001"
    " | pred ent=4 lvl=24 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=24 flush=0 rebuilt=0 pm=28 E=0.00019016524799999999",
    "obcm@0 worst=4.4666943999999998e-05 prov=0.00043484543100000001"
    " | pred ent=7 lvl=24 flush=0 rebuilt=0 pm=37 E=0"
    " | crash ent=7 lvl=24 flush=0 rebuilt=0 pm=37 E=0.00021796934400000002",
    "cobcm@1500 worst=4.5385536e-05 prov=0.00044120620799999996"
    " | pred ent=4 lvl=24 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=24 flush=0 rebuilt=0 pm=28 E=0.00019016524799999999",
    "cobcm@0 worst=4.5385536e-05 prov=0.00044120620799999996"
    " | pred ent=8 lvl=30 flush=0 rebuilt=0 pm=40 E=0"
    " | crash ent=8 lvl=30 flush=0 rebuilt=0 pm=40 E=0.00026071628800000002",
    "secpm@1500 worst=4.2746943999999996e-05 prov=0.00039235218300000003"
    " | pred ent=2 lvl=12 flush=0 rebuilt=0 pm=7 E=0"
    " | crash ent=2 lvl=12 flush=0 rebuilt=0 pm=7 E=8.3057920000000011e-05",
    "secpm@0 worst=4.2746943999999996e-05 prov=0.00039235218300000003"
    " | pred ent=4 lvl=24 flush=0 rebuilt=0 pm=20 E=0"
    " | crash ent=4 lvl=24 flush=0 rebuilt=0 pm=20 E=0.00015643827200000001",
    "triad:levels=1@1500 worst=1.3781184000000001e-05 prov=0.00042438469500000002"
    " | pred ent=4 lvl=4 flush=0 rebuilt=0 pm=20 E=0"
    " | crash ent=4 lvl=4 flush=0 rebuilt=5 pm=20 E=6.2793471999999991e-05",
    "triad:levels=1@0 worst=1.3781184000000001e-05 prov=0.00042438469500000002"
    " | pred ent=4 lvl=4 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=4 flush=0 rebuilt=5 pm=28 E=6.6622207999999996e-05",
    "triad:levels=2@1500 worst=1.9574335999999998e-05 prov=0.00042438469500000002"
    " | pred ent=4 lvl=8 flush=0 rebuilt=0 pm=20 E=0"
    " | crash ent=4 lvl=8 flush=0 rebuilt=4 pm=20 E=8.5966080000000016e-05",
    "triad:levels=2@0 worst=1.9574335999999998e-05 prov=0.00042438469500000002"
    " | pred ent=4 lvl=8 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=8 flush=0 rebuilt=4 pm=28 E=8.9794815999999993e-05",
    "triad:levels=3@1500 worst=2.5367488000000005e-05 prov=0.00042438469500000002"
    " | pred ent=4 lvl=12 flush=0 rebuilt=0 pm=20 E=0"
    " | crash ent=4 lvl=12 flush=0 rebuilt=3 pm=20 E=0.00010913868800000001",
    "triad:levels=3@0 worst=2.5367488000000005e-05 prov=0.00042438469500000002"
    " | pred ent=4 lvl=12 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=12 flush=0 rebuilt=3 pm=28 E=0.00011296742400000002",
    "eadr@1500 worst=4.5385536e-05 prov=3.6616776581119996"
    " | pred ent=4 lvl=24 flush=74752 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=24 flush=74752 rebuilt=0 pm=28 E=0.053906354432000002",
    "eadr@0 worst=4.5385536e-05 prov=3.6616776581119996"
    " | pred ent=8 lvl=30 flush=74752 rebuilt=0 pm=40 E=0"
    " | crash ent=8 lvl=30 flush=74752 rebuilt=0 pm=40 E=0.053976905472",
    "stream@1500 worst=7.9880319999999996e-06 prov=2.7383606999999999e-05"
    " | pred ent=5 lvl=0 flush=0 rebuilt=0 pm=24 E=0"
    " | crash ent=5 lvl=0 flush=0 rebuilt=0 pm=24 E=2.6109247999999999e-05",
    "stream@0 worst=7.9880319999999996e-06 prov=2.7383606999999999e-05"
    " | pred ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=0"
    " | crash ent=4 lvl=0 flush=0 rebuilt=0 pm=28 E=2.3151360000000001e-05",
};
// clang-format on

} // namespace

TEST(CrashWorkPin, EverySchemeMatchesRecordedWork)
{
    std::vector<std::string> rows;
    for (const char *spec : kSpecs)
        for (Tick at : {Tick(1500), Tick(0)})
            rows.push_back(pinRow(spec, at));

    bool match = rows.size() == std::size(kGolden);
    for (std::size_t i = 0; match && i < rows.size(); ++i)
        match = rows[i] == kGolden[i];
    if (!match) {
        std::string table;
        for (const std::string &r : rows)
            table += "    \"" + r + "\",\n";
        ADD_FAILURE() << "crash-work table changed; measured:\n" << table;
    }
}
