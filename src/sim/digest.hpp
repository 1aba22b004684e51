/**
 * @file
 * FNV-1a streaming digest.
 *
 * The repo's determinism contract ("a (seed, config) pair fully
 * determines a run") is enforced by comparing cheap order-sensitive
 * digests of simulation state across thread counts, kernel versions,
 * and record/replay round trips. This helper is that digest: FNV-1a
 * over explicitly-fed words, so two streams match iff the same values
 * arrived in the same order. Golden pins in tests/golden_trace_test.cpp
 * and the flight recorder's log digests both build on it.
 */

#ifndef BLITZ_SIM_DIGEST_HPP
#define BLITZ_SIM_DIGEST_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace blitz::sim {

/** Order-sensitive FNV-1a accumulator over 64-bit words. */
class Fnv1a
{
  public:
    /**
     * Fold @p v's eight bytes, least significant first. A zero byte's
     * xor is a no-op, so the high zero bytes of a small value each
     * only multiply by the prime; they fold into one multiply by the
     * matching prime power — the same digest, bit for bit.
     */
    Fnv1a &
    u64(std::uint64_t v)
    {
        const int live = 8 - std::countl_zero(v) / 8;
        for (int i = 0; i < live; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= kPrime;
        }
        h_ *= kPrimePow[8 - live];
        return *this;
    }

    Fnv1a &
    i64(std::int64_t v)
    {
        return u64(static_cast<std::uint64_t>(v));
    }

    /** Digest a double by bit pattern (exact, not by value). */
    Fnv1a &
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    /** kPrime^k mod 2^64 for k = 0..8. */
    static constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
        std::array<std::uint64_t, 9> p{};
        p[0] = 1;
        for (std::size_t k = 1; k < p.size(); ++k)
            p[k] = p[k - 1] * kPrime;
        return p;
    }();

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace blitz::sim

#endif // BLITZ_SIM_DIGEST_HPP
