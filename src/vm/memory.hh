/**
 * @file
 * Sparse word-addressed data memory and initial memory images.
 *
 * Memory is an array of 64-bit words indexed by word address; a word can
 * hold either an integer or the bit pattern of an IEEE double. Word
 * addressing (rather than byte addressing) keeps workload code free of
 * alignment arithmetic without changing any value-prediction behaviour.
 */

#ifndef VPPROF_VM_MEMORY_HH
#define VPPROF_VM_MEMORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace vpprof
{

/**
 * Sparse 64-bit word memory; unwritten words read as zero.
 *
 * A page table of 4096-word pages, allocated on first store: pages
 * below word address 2^28 sit in a vector indexed by page number
 * (every workload's data lives there, so a load is two indexed reads),
 * and the rare pages above it (wrapped negative addresses included)
 * in a hash keyed by page number. Each page keeps a written-bit per
 * word so footprint() still counts distinct words ever written.
 */
class Memory
{
  public:
    static constexpr unsigned kPageBits = 12;
    static constexpr uint64_t kPageWords = uint64_t{1} << kPageBits;
    /** Pages numbered below this live in the directly indexed table. */
    static constexpr uint64_t kDirectPages = uint64_t{1}
                                             << (28 - kPageBits);

    /** Read the word at an address (0 when never written). */
    int64_t
    load(uint64_t addr) const
    {
        const Page *page = findPage(addr >> kPageBits);
        return page ? page->words[addr & (kPageWords - 1)] : 0;
    }

    /** Write the word at an address. */
    void
    store(uint64_t addr, int64_t value)
    {
        Page &page = pageFor(addr >> kPageBits);
        const uint64_t word = addr & (kPageWords - 1);
        uint64_t &written = page.written[word >> 6];
        const uint64_t bit = uint64_t{1} << (word & 63);
        footprint_ += (written & bit) == 0;
        written |= bit;
        page.words[word] = value;
    }

    /** Read a double stored via storeDouble. */
    double
    loadDouble(uint64_t addr) const
    {
        return std::bit_cast<double>(load(addr));
    }

    /** Store a double as its bit pattern. */
    void
    storeDouble(uint64_t addr, double value)
    {
        store(addr, std::bit_cast<int64_t>(value));
    }

    /** Number of distinct words ever written. */
    size_t footprint() const { return footprint_; }

    void
    clear()
    {
        direct_.clear();
        high_.clear();
        footprint_ = 0;
    }

  private:
    struct Page
    {
        std::array<int64_t, kPageWords> words{};
        std::array<uint64_t, kPageWords / 64> written{};
    };

    const Page *
    findPage(uint64_t number) const
    {
        if (number < direct_.size())
            return direct_[number].get();
        if (number < kDirectPages)
            return nullptr;
        auto it = high_.find(number);
        return it == high_.end() ? nullptr : it->second.get();
    }

    Page &
    pageFor(uint64_t number)
    {
        std::unique_ptr<Page> *slot;
        if (number < kDirectPages) {
            if (number >= direct_.size())
                direct_.resize(number + 1);
            slot = &direct_[number];
        } else {
            slot = &high_[number];
        }
        if (!*slot)
            *slot = std::make_unique<Page>();
        return **slot;
    }

    std::vector<std::unique_ptr<Page>> direct_;
    std::unordered_map<uint64_t, std::unique_ptr<Page>> high_;
    size_t footprint_ = 0;
};

/**
 * An initial memory image plus optional initial register values: the
 * "input set" of a workload run. Programs are fixed across runs; only
 * the image varies, so static instruction addresses stay comparable
 * between profile images (Section 4's requirement).
 */
class MemoryImage
{
  public:
    /** Set one word. */
    void store(uint64_t addr, int64_t value) { words_[addr] = value; }

    /** Set one double. */
    void
    storeDouble(uint64_t addr, double value)
    {
        words_[addr] = std::bit_cast<int64_t>(value);
    }

    /** Set a contiguous block starting at addr. */
    void
    storeBlock(uint64_t addr, const std::vector<int64_t> &values)
    {
        for (size_t i = 0; i < values.size(); ++i)
            words_[addr + i] = values[i];
    }

    /** Seed an initial register value (applied before execution). */
    void
    setRegister(uint8_t reg, int64_t value)
    {
        regs_[reg] = value;
    }

    const std::unordered_map<uint64_t, int64_t> &words() const
    {
        return words_;
    }

    const std::unordered_map<uint8_t, int64_t> &registers() const
    {
        return regs_;
    }

  private:
    std::unordered_map<uint64_t, int64_t> words_;
    std::unordered_map<uint8_t, int64_t> regs_;
};

} // namespace vpprof

#endif // VPPROF_VM_MEMORY_HH
