/**
 * @file
 * Unit tests for the set-associative tag store.
 */

#include <gtest/gtest.h>

#include "mem/set_assoc.hh"

using namespace secpb;

namespace
{

CacheGeometry
tinyGeom()
{
    // 4 sets x 2 ways x 64B = 512B.
    return CacheGeometry{512, 2, 64};
}

} // namespace

TEST(SetAssoc, MissThenHit)
{
    SetAssocCache c(tinyGeom());
    EXPECT_FALSE(c.access(0x100));
    c.insert(0x100);
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f));  // same block, different byte
}

TEST(SetAssoc, GeometryComputesSets)
{
    EXPECT_EQ(SetAssocCache(tinyGeom()).numSets(), 4u);
    EXPECT_EQ(SetAssocCache(CacheGeometry{128 * 1024, 8, 64}).numSets(),
              256u);
}

TEST(SetAssoc, LruEvictsLeastRecentlyUsed)
{
    SetAssocCache c(tinyGeom());
    // Set index = (addr/64) % 4. Addresses 0, 0x400, 0x800 share set 0.
    c.insert(0x000);
    c.insert(0x400);
    c.access(0x000);  // make 0x400 the LRU way
    auto victim = c.insert(0x800);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x400u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x400));
}

TEST(SetAssoc, InsertReportsVictimDirtiness)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x000);
    c.insert(0x400);
    c.markDirty(0x000);
    c.access(0x400);  // 0x000 becomes LRU
    auto victim = c.insert(0x800);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x000u);
    EXPECT_TRUE(victim->dirty);
}

TEST(SetAssoc, DoubleInsertIsIdempotent)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x100);
    EXPECT_FALSE(c.insert(0x100).has_value());
    EXPECT_EQ(c.numValid(), 1u);
}

TEST(SetAssoc, InvalidateRemoves)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x100);
    EXPECT_TRUE(c.invalidate(0x100));
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_FALSE(c.invalidate(0x100));
}

TEST(SetAssoc, DirtyTracking)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x100);
    EXPECT_FALSE(c.isDirty(0x100));
    EXPECT_TRUE(c.markDirty(0x100));
    EXPECT_TRUE(c.isDirty(0x100));
    EXPECT_FALSE(c.markDirty(0x980));  // not present
}

TEST(SetAssoc, ResidentBlocksFilterDirty)
{
    SetAssocCache c(tinyGeom());
    c.insert(0x000);
    c.insert(0x040);
    c.markDirty(0x040);
    EXPECT_EQ(c.residentBlocks(false).size(), 2u);
    const auto dirty = c.residentBlocks(true);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0], 0x040u);
}

TEST(SetAssoc, FlushAllEmpties)
{
    SetAssocCache c(tinyGeom());
    for (Addr a = 0; a < 512; a += 64)
        c.insert(a);
    c.flushAll();
    EXPECT_EQ(c.numValid(), 0u);
}

TEST(SetAssoc, NonPowerOfTwoSetsIsFatal)
{
    CacheGeometry g{3 * 64 * 2, 2, 64};  // 3 sets
    EXPECT_DEATH(SetAssocCache c(g), "power of two");
}

TEST(SetAssoc, FullyAssociativeWorks)
{
    // One set, 8 ways.
    SetAssocCache c(CacheGeometry{8 * 64, 8, 64});
    for (Addr a = 0; a < 8 * 64; a += 64)
        c.insert(a);
    EXPECT_EQ(c.numValid(), 8u);
    auto victim = c.insert(0x4000);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x000u);  // LRU
}

TEST(SetAssoc, UntouchedCacheAnswersEveryProbeAsMiss)
{
    // Tags are allocated on the first insert; until then the cache is
    // empty and every query must say so without allocating.
    SetAssocCache c(CacheGeometry{4 * 1024 * 1024, 32, 64});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.isDirty(0x1000));
    EXPECT_FALSE(c.markDirty(0x1000));
    EXPECT_FALSE(c.markClean(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
    EXPECT_EQ(c.numValid(), 0u);
    EXPECT_TRUE(c.residentBlocks().empty());
    EXPECT_TRUE(c.residentBlocks(true).empty());
    c.flushAll();
    EXPECT_EQ(c.numValid(), 0u);
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(SetAssoc, FirstInsertMatchesAnAllocatedEmptyCache)
{
    // A cache that was filled and flushed holds an allocated all-invalid
    // array; a fresh one holds none. Both must pick the same victims.
    SetAssocCache fresh(tinyGeom());
    SetAssocCache flushed(tinyGeom());
    for (Addr a = 0; a < 1024; a += 64)
        flushed.insert(a);
    flushed.flushAll();

    for (SetAssocCache *c : {&fresh, &flushed}) {
        EXPECT_FALSE(c->insert(0x000).has_value());
        EXPECT_TRUE(c->contains(0x000));
        EXPECT_EQ(c->numValid(), 1u);
    }
    for (Addr a : {0x100, 0x200, 0x040, 0x300, 0x500}) {
        const auto vf = fresh.insert(a);
        const auto vl = flushed.insert(a);
        ASSERT_EQ(vf.has_value(), vl.has_value()) << a;
        if (vf) {
            EXPECT_EQ(vf->addr, vl->addr) << a;
        }
        fresh.markDirty(a);
        flushed.markDirty(a);
    }
    EXPECT_EQ(fresh.residentBlocks(), flushed.residentBlocks());
    EXPECT_EQ(fresh.residentBlocks(true), flushed.residentBlocks(true));
}
