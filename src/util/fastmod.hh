/**
 * @file
 * Exact 64-bit remainder by a fixed divisor without a division
 * instruction: the multiply-shift "fastmod" of Lemire, Kaser and Kurz,
 * "Faster Remainder by Direct Computation" (2019), with a 128-bit
 * magic number.
 *
 * With c = ceil(2^128 / d), a % d == ((c * a mod 2^128) * d) >> 128 for
 * every 64-bit a and every divisor 1 <= d < 2^64. The paper's exactness
 * condition for N-bit numerators and an F-bit magic is
 * 2^F <= c * d <= 2^F + 2^(F - N); here F = 128 and N = 64, and
 * c * d - 2^128 < d <= 2^64 holds for every 64-bit divisor. Powers of
 * two (including d = 1, where c wraps to 0) are exact as well.
 */

#ifndef GWS_UTIL_FASTMOD_HH
#define GWS_UTIL_FASTMOD_HH

#include <cstdint>

namespace gws {

/** a % d by multiply-shift for a divisor fixed at construction. */
class FastMod
{
  public:
    /** Remainder by 1 (always 0). */
    FastMod() = default;

    /** Precompute the magic for divisor d (d >= 1). */
    explicit FastMod(std::uint64_t d)
        : magic(~static_cast<U128>(0) / d + 1), div(d)
    {
    }

    /** The divisor. */
    std::uint64_t divisor() const { return div; }

    /** a % divisor(), exactly, for any 64-bit a. */
    std::uint64_t
    operator()(std::uint64_t a) const
    {
        const U128 low = magic * a;
        const U128 bottom =
            static_cast<U128>(static_cast<std::uint64_t>(low)) * div;
        const U128 top =
            static_cast<U128>(static_cast<std::uint64_t>(low >> 64)) *
            div;
        return static_cast<std::uint64_t>((top + (bottom >> 64)) >> 64);
    }

  private:
    __extension__ typedef unsigned __int128 U128;

    U128 magic = 0;
    std::uint64_t div = 1;
};

} // namespace gws

#endif // GWS_UTIL_FASTMOD_HH
