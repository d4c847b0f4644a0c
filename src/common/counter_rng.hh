#ifndef TENSORDASH_COMMON_COUNTER_RNG_HH_
#define TENSORDASH_COMMON_COUNTER_RNG_HH_

/**
 * @file
 * Counter-based random numbers for tensor synthesis.
 *
 * A CounterRng is a 64-bit key.  Draw i is a pure integer hash of
 * (key, i) — SplitMix64's output function at counter i — so every
 * element of a synthesized tensor is an independent function of its
 * index, computable in any order and on any thread.  The integer path
 * (at, child) is exact 64-bit arithmetic: its outputs are the
 * same on every platform, compiler and optimisation level, and no
 * standard-library distribution algorithm sits between the key and
 * the draw.
 *
 * The samplers (uniform, beta) consume consecutive counters from a
 * cursor.  beta calls libm (log, cos, pow), whose last bits can vary
 * across libm builds and CPU dispatch.
 */

#include <cstdint>

namespace tensordash {

/** Keyed counter-based generator; see the file comment. */
class CounterRng
{
  public:
    /** @param key the stream's identity, e.g. Rng::key(). */
    explicit constexpr CounterRng(uint64_t key) : key_(key) {}

    /** @return draw @p i of this stream: a pure function of (key, i). */
    constexpr uint64_t
    at(uint64_t i) const
    {
        return mix(key_ + (i + 1) * kGamma);
    }

    /**
     * @return the independent stream @p id below this one (one per
     * tensor, per map, per filter...).  A stream is used either for
     * draws or as the parent of children, never both.
     */
    constexpr CounterRng
    child(uint64_t id) const
    {
        return CounterRng(mix(key_ ^ ((id + 1) * kChildSalt)));
    }

    /** @return uniform double in [0, 1) (53 bits). */
    double uniform() { return (double)(next() >> 11) * 0x1p-53; }

    /**
     * @return Beta(@p a, @p b) sample as a ratio of two Marsaglia-Tsang
     * gammas, for shapes > 0.
     */
    double beta(double a, double b);

  private:
    /** SplitMix64's finalizer: a bijective 64-bit avalanche mix. */
    static constexpr uint64_t
    mix(uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** @return the draw at the cursor, then advance it. */
    uint64_t next() { return at(cursor_++); }

    /** @return uniform double in (0, 1]: safe to take the log of. */
    double uniformPositive()
    { return (double)((next() >> 11) + 1) * 0x1p-53; }

    /** @return N(0, 1) sample (Box-Muller, cosine branch). */
    double normal();

    /** @return Gamma(@p shape, 1) sample, shape > 0. */
    double gamma(double shape);

    static constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;
    static constexpr uint64_t kChildSalt = 0xd1b54a32d192ed03ull;

    uint64_t key_;
    uint64_t cursor_ = 0;
};

} // namespace tensordash

#endif // TENSORDASH_COMMON_COUNTER_RNG_HH_
