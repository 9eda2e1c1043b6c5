/**
 * @file
 * Unit tests for the sparse memory and memory images, including a
 * seeded twin of the paged Memory against a hash-map reference.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.hh"
#include "vm/memory.hh"

namespace vpprof
{
namespace
{

TEST(Memory, UnwrittenWordsReadZero)
{
    Memory m;
    EXPECT_EQ(m.load(0), 0);
    EXPECT_EQ(m.load(1ull << 40), 0);
    EXPECT_EQ(m.footprint(), 0u);
}

TEST(Memory, StoreLoadRoundTrip)
{
    Memory m;
    m.store(100, -42);
    EXPECT_EQ(m.load(100), -42);
    EXPECT_EQ(m.footprint(), 1u);
}

TEST(Memory, OverwriteKeepsFootprint)
{
    Memory m;
    m.store(7, 1);
    m.store(7, 2);
    EXPECT_EQ(m.load(7), 2);
    EXPECT_EQ(m.footprint(), 1u);
}

TEST(Memory, DoubleRoundTripIsBitExact)
{
    Memory m;
    m.storeDouble(5, 3.14159265358979);
    EXPECT_EQ(m.loadDouble(5), 3.14159265358979);
    m.storeDouble(6, -0.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(m.loadDouble(6)),
              std::bit_cast<uint64_t>(-0.0));
}

TEST(Memory, ClearEmptiesEverything)
{
    Memory m;
    m.store(1, 1);
    m.clear();
    EXPECT_EQ(m.load(1), 0);
    EXPECT_EQ(m.footprint(), 0u);
}

TEST(Memory, PagedTableMatchesHashMapReference)
{
    // 100k seeded loads and stores over every kind of address the page
    // table splits: low words (the direct table), the 2^28-word edge
    // between direct and hashed pages, high words, wrapped negative
    // addresses (a base register plus a negative offset), and raw
    // 64-bit values. Addresses are drawn from small pools so loads
    // hit written words as often as unwritten ones.
    const uint64_t edge = Memory::kDirectPages * Memory::kPageWords;
    ASSERT_EQ(edge, uint64_t{1} << 28);
    Rng rng(20260419);
    auto address = [&]() -> uint64_t {
        switch (rng.nextBelow(6)) {
          case 0: return rng.nextBelow(3 * Memory::kPageWords);
          case 1: return 60000 + rng.nextBelow(20000);
          case 2: return edge - 64 + rng.nextBelow(128);
          case 3: return (uint64_t{1} << 40) + rng.nextBelow(5000);
          case 4:
            return static_cast<uint64_t>(
                -static_cast<int64_t>(1 + rng.nextBelow(9000)));
          default: return rng.next() | (uint64_t{1} << 63);
        }
    };

    Memory memory;
    std::unordered_map<uint64_t, int64_t> reference;
    for (int op = 0; op < 100'000; ++op) {
        const uint64_t addr = address();
        if (rng.nextBelow(2)) {
            const int64_t value = static_cast<int64_t>(rng.next());
            memory.store(addr, value);
            reference[addr] = value;
        } else {
            auto it = reference.find(addr);
            ASSERT_EQ(memory.load(addr),
                      it == reference.end() ? 0 : it->second)
                << "addr " << addr << " op " << op;
        }
        if (op % 1000 == 0) {
            ASSERT_EQ(memory.footprint(), reference.size()) << op;
        }
    }
    EXPECT_EQ(memory.footprint(), reference.size());
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(memory.load(addr), value) << "addr " << addr;

    // A stored zero is still a written word.
    memory.store(edge + 1, 0);
    reference[edge + 1] = 0;
    EXPECT_EQ(memory.footprint(), reference.size());
    memory.clear();
    EXPECT_EQ(memory.footprint(), 0u);
    EXPECT_EQ(memory.load(edge - 1), 0);
    EXPECT_EQ(memory.load(~uint64_t{0}), 0);
}

TEST(MemoryImage, StoreBlockIsContiguous)
{
    MemoryImage image;
    image.storeBlock(10, {1, 2, 3});
    EXPECT_EQ(image.words().at(10), 1);
    EXPECT_EQ(image.words().at(11), 2);
    EXPECT_EQ(image.words().at(12), 3);
}

TEST(MemoryImage, RegistersRecorded)
{
    MemoryImage image;
    image.setRegister(5, 99);
    EXPECT_EQ(image.registers().at(5), 99);
}

TEST(MemoryImage, StoreDoubleBits)
{
    MemoryImage image;
    image.storeDouble(3, 1.5);
    EXPECT_EQ(image.words().at(3), std::bit_cast<int64_t>(1.5));
}

} // namespace
} // namespace vpprof
