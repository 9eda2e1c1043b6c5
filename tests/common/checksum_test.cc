/**
 * @file
 * Known answers for the checksums: XXH64 must match its published
 * specification byte for byte, since trace blocks on disk carry it.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/checksum.hh"

namespace vpprof
{
namespace
{

uint64_t
xxh64Of(const std::string &s, uint64_t seed = 0)
{
    return xxh64(s.data(), s.size(), seed);
}

TEST(Checksum, Xxh64SpecKnownAnswers)
{
    // Seed 0; the empty input and the short inputs take the < 32-byte
    // path, the 39-byte sentence one stripe plus a 4- and 3-byte tail.
    EXPECT_EQ(xxh64Of(""), 0xef46db3751d8e999ULL);
    EXPECT_EQ(xxh64Of("a"), 0xd24ec4f1a98c6e5bULL);
    EXPECT_EQ(xxh64Of("abc"), 0x44bc2cf5ad770999ULL);
    EXPECT_EQ(xxh64Of("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ULL);
}

TEST(Checksum, Xxh64StripeWithAnEightByteTail)
{
    // 40 bytes: one 32-byte stripe, then exactly one 8-byte word and no
    // 4- or 1-byte tail. The low 32 bits agree with the content
    // checksum zstd stores for the same bytes.
    const std::string s = "Value prediction needs a stride profile!";
    ASSERT_EQ(s.size(), 40u);
    EXPECT_EQ(xxh64Of(s), 0x5fa9d113c1d8b65cULL);
}

} // namespace
} // namespace vpprof
