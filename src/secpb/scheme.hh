/**
 * @file
 * The SecPB secure-persistency scheme spectrum (paper Section IV, Table II),
 * plus the related-work scheme zoo (ROADMAP item 2).
 *
 * Each scheme decides which components of the memory tuple
 * (counter, OTP, BMT root, ciphertext, MAC) are produced *early* -- on the
 * critical path of a store entering the SecPB -- versus *late* -- when the
 * entry drains, or post-crash on battery power. Scheme names list the
 * components deferred to late time: e.g. BCM defers Bmt root, Ciphertext,
 * and Mac; COBCM defers everything (Counter, Otp, Bmt, Ciphertext, Mac).
 *
 * The zoo adds four designs from the related work as first-class schemes,
 * each defined by its SchemeTable row like the paper's six:
 *
 *  - secpm:  SecPM's counter write-through (Zuo/Hua/Xie) -- the counter
 *    cache writes through to PCM so data+counter persist atomically; the
 *    BMT stays lazy.
 *  - triad:  Triad-NVM's selective BMT persistence (Awad et al.) -- only
 *    the lowest N tree levels are persisted (knob: `triad:levels=N`);
 *    recovery rebuilds the volatile upper tree, trading recovery time
 *    against runtime/battery cost.
 *  - eadr:   the eADR-ideal baseline -- the battery flushes the *entire*
 *    cache hierarchy at crash time, so runtime is COBCM-lazy but the
 *    provisioned battery must cover the hierarchy footprint (priced via
 *    the sEADR row of the energy model).
 *  - stream: Freij/Zhou/Solihin "Streamlining Integrity Tree Updates" --
 *    NoGap-strict BMT security, but the store unblocks at pipelined walk
 *    *issue* (coalesced root updates retire in the background).
 */

#ifndef SECPB_SECPB_SCHEME_HH
#define SECPB_SECPB_SCHEME_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <string>

#include "sim/logging.hh"

namespace secpb
{

/** Evaluated persistency schemes (paper Table II + the scheme zoo). */
enum class Scheme
{
    Bbb,    ///< Insecure battery-backed buffer baseline (HPCA'21).
    Sp,     ///< Strict persistency with SPoP at the MC (PLP, MICRO'20).
    SecWt,  ///< Write-through security: full tuple per store, no
            ///< once-per-dirty-block coalescing (Fig. 8 normalization).
    NoGap,  ///< Eagerly update all metadata.
    M,      ///< Defer MAC.
    Cm,     ///< Defer ciphertext, MAC.
    Bcm,    ///< Defer BMT root, ciphertext, MAC.
    Obcm,   ///< Defer OTP, BMT root, ciphertext, MAC.
    Cobcm,  ///< Defer everything; only the data write is early.
    Secpm,  ///< SecPM: counter write-through, data+counter atomicity.
    Triad,  ///< Triad-NVM: persist BMT levels < N, rebuild the rest.
    Eadr,   ///< eADR-ideal: battery flushes the whole cache hierarchy.
    Stream, ///< Streamlined BMT: strict tree, unblock at walk issue.
};

/** Scheme parameters carried alongside the enum (the zoo's knobs). */
struct SchemeParams
{
    /**
     * Triad-NVM only: number of lowest BMT node levels persisted at
     * drain/crash time (`triad:levels=N`). Levels >= N are rebuilt at
     * recovery. Must be >= 1 -- level 0 (the counter-block digests'
     * parents) anchors the persisted frontier.
     */
    unsigned triadLevels = 2;
};

/** What the battery must cover at crash time. */
enum class PersistDomain
{
    Entries,   ///< The SecPB entries (every buffered scheme).
    Wpq,       ///< The ADR WPQ (SP): stores persist on WPQ arrival, and
               ///< the crash drain completes pending tuples, not entries.
    Hierarchy, ///< eADR: the entries plus the whole volatile cache
               ///< hierarchy, flushed on battery power.
};

/**
 * One scheme's row of facts -- the only place they live. The seven
 * bools are the paper's Table II row; the last four columns are the
 * axes the related-work zoo varies.
 */
struct SchemeTraits
{
    const char *name;     ///< Canonical lowercase name (CLI, JSON).
    bool secure;          ///< Any security metadata at all.
    bool earlyCounter;    ///< Counter fetched+incremented at store persist.
    bool earlyOtp;        ///< One-time pad generated at store persist.
    bool earlyBmt;        ///< BMT root updated at store persist.
    bool earlyCiphertext; ///< Ciphertext regenerated per store.
    bool earlyMac;        ///< MAC regenerated per store.
    /**
     * Apply the Section IV-A optimization: data-value-independent metadata
     * (counter, OTP, BMT root) is produced once per dirty block rather than
     * once per store. On for every scheme except the write-through
     * strawman.
     */
    bool coalesceValueIndependent;
    PersistDomain persist;
    /**
     * Counter updates write through to PCM (SecPM's data+counter
     * atomicity): the counter-cache block stays clean, so crashes never
     * lose counters, at a per-update PCM write.
     */
    bool counterWriteThrough;
    /**
     * An early tree update unblocks the store at pipelined walk *issue*;
     * the coalesced root update retires in the background.
     */
    bool streamlinedBmtIssue;
    /**
     * Only the lowest SchemeParams::triadLevels BMT levels persist: they
     * are written through at drain time and walked at crash time, and
     * recovery rebuilds the volatile levels above them.
     */
    bool partialBmtPersistence;
};

/** The scheme table, indexed by Scheme. */
// clang-format off
constexpr SchemeTraits SchemeTable[] = {
    // name     secure ctr    otp    bmt    ct     mac    coalesce
    //          persist                    ctrWT  stream partialBmt
    {"bbb",     false, false, false, false, false, false, true,
                PersistDomain::Entries,    false, false, false},
    {"sp",      true,  true,  true,  true,  true,  true,  false,
                PersistDomain::Wpq,        false, false, false},
    {"sec_wt",  true,  true,  true,  true,  true,  true,  false,
                PersistDomain::Entries,    false, false, false},
    {"nogap",   true,  true,  true,  true,  true,  true,  true,
                PersistDomain::Entries,    false, false, false},
    {"m",       true,  true,  true,  true,  true,  false, true,
                PersistDomain::Entries,    false, false, false},
    {"cm",      true,  true,  true,  true,  false, false, true,
                PersistDomain::Entries,    false, false, false},
    {"bcm",     true,  true,  true,  false, false, false, true,
                PersistDomain::Entries,    false, false, false},
    {"obcm",    true,  true,  false, false, false, false, true,
                PersistDomain::Entries,    false, false, false},
    {"cobcm",   true,  false, false, false, false, false, true,
                PersistDomain::Entries,    false, false, false},
    // Everything early except the BMT root: the write-through counter
    // persists with the data; the tree is the one lazy component.
    {"secpm",   true,  true,  true,  false, true,  true,  true,
                PersistDomain::Entries,    true,  false, false},
    // BCM-like runtime; only the lowest tree levels persist.
    {"triad",   true,  true,  true,  false, false, false, true,
                PersistDomain::Entries,    false, false, true},
    // COBCM-lazy runtime; the battery covers the whole hierarchy.
    {"eadr",    true,  false, false, false, false, false, true,
                PersistDomain::Hierarchy,  false, false, false},
    // NoGap-strict tuple, but the walk only gates at pipe issue.
    {"stream",  true,  true,  true,  true,  true,  true,  true,
                PersistDomain::Entries,    false, true,  false},
};
// clang-format on
static_assert(std::size(SchemeTable) ==
                  static_cast<std::size_t>(Scheme::Stream) + 1,
              "one SchemeTable row per Scheme, in enum order");

/** The row for @p s. */
constexpr const SchemeTraits &
schemeTraits(Scheme s)
{
    return SchemeTable[static_cast<std::size_t>(s)];
}

/** Canonical (lowercase) scheme name, used in CLI and JSON. */
constexpr const char *
schemeName(Scheme s)
{
    return schemeTraits(s).name;
}

/** Every scheme, in table order (parsing, "valid names" messages). */
constexpr auto SchemeList = [] {
    std::array<Scheme, std::size(SchemeTable)> all{};
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<Scheme>(i);
    return all;
}();

/** Comma-separated list of every canonical scheme name. */
inline std::string
allSchemeNames()
{
    std::string out;
    for (const SchemeTraits &row : SchemeTable) {
        if (!out.empty())
            out += ", ";
        out += row.name;
    }
    return out;
}

/**
 * Parse a scheme spec: a canonical name, or a parameterized form
 * (`triad:levels=N`, stored into @p params when non-null). Fatal --
 * listing every valid name -- on anything else.
 */
inline Scheme
parseSchemeSpec(const std::string &spec, SchemeParams *params = nullptr)
{
    const std::string::size_type colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    const auto it =
        std::find_if(SchemeList.begin(), SchemeList.end(),
                     [&](Scheme s) { return name == schemeName(s); });
    fatal_if(it == SchemeList.end(),
             "unknown scheme name '%s' (valid: %s; triad accepts "
             "'triad:levels=N')",
             spec.c_str(), allSchemeNames().c_str());
    const Scheme parsed = *it;

    if (colon != std::string::npos) {
        const std::string tail = spec.substr(colon + 1);
        fatal_if(parsed != Scheme::Triad,
                 "scheme '%s' takes no parameters (got '%s')",
                 schemeName(parsed), spec.c_str());
        const char *prefix = "levels=";
        fatal_if(tail.rfind(prefix, 0) != 0,
                 "bad triad spec '%s' (expected 'triad:levels=N')",
                 spec.c_str());
        char *end = nullptr;
        const std::string num = tail.substr(std::string(prefix).size());
        const unsigned long levels =
            std::strtoul(num.c_str(), &end, 10);
        fatal_if(num.empty() || (end && *end != '\0') || levels < 1 ||
                     levels > 64,
                 "bad triad level count in '%s' (need 1 <= N <= 64)",
                 spec.c_str());
        if (params)
            params->triadLevels = static_cast<unsigned>(levels);
    }
    return parsed;
}

/** Parse a bare scheme name (no parameters). */
inline Scheme
parseScheme(const std::string &name)
{
    return parseSchemeSpec(name, nullptr);
}

/** Display label for (scheme, params): "triad:levels=N" or the name. */
inline std::string
schemeSpecName(Scheme s, const SchemeParams &params)
{
    if (s == Scheme::Triad)
        return std::string("triad:levels=") +
               std::to_string(params.triadLevels);
    return schemeName(s);
}

/** The paper's six SecPB schemes, laziest first (for paper sweeps). */
constexpr Scheme SecPbSchemes[] = {
    Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm,
    Scheme::Cm, Scheme::M, Scheme::NoGap,
};

/**
 * The full secure scheme zoo, laziest first: the paper's six plus the
 * four related-work designs. This is the sweep list for the fault soak
 * and the widened-spectrum benches (soak trials map scheme = trial mod
 * std::size(SchemeZoo)).
 */
constexpr Scheme SchemeZoo[] = {
    Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm,
    Scheme::Cm, Scheme::M, Scheme::NoGap,
    Scheme::Secpm, Scheme::Triad, Scheme::Eadr, Scheme::Stream,
};

} // namespace secpb

#endif // SECPB_SECPB_SCHEME_HH
