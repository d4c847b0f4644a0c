#ifndef TENSORDASH_COMMON_RNG_HH_
#define TENSORDASH_COMMON_RNG_HH_

/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator takes an explicit Rng so
 * experiments are reproducible from a single seed.
 */

#include <cstdint>
#include <random>

namespace tensordash {

/** Thin deterministic wrapper around a Mersenne Twister engine. */
class Rng
{
  public:
    /** @param seed deterministic seed for the underlying engine. */
    explicit Rng(uint64_t seed = 0x7d5ull) : engine_(seed) {}

    /** @return uniform float in [0, 1). */
    float uniform() { return uni_(engine_); }

    /** @return uniform float in [lo, hi). */
    float
    uniform(float lo, float hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    int
    uniformInt(int lo, int hi)
    {
        std::uniform_int_distribution<int> d(lo, hi);
        return d(engine_);
    }

    /** @return sample from N(mean, stddev^2). */
    float
    normal(float mean = 0.0f, float stddev = 1.0f)
    {
        std::normal_distribution<float> d(mean, stddev);
        return d(engine_);
    }

    /** @return true with probability p. */
    bool bernoulli(float p) { return uniform() < p; }

    /**
     * @return one raw 64-bit engine output, e.g. the key of a
     * CounterRng.  mt19937_64's output sequence is fixed by the C++
     * standard; the std::*_distribution algorithms behind the other
     * draws are not.
     */
    uint64_t key() { return engine_(); }

    /** Split off an independently seeded child stream. */
    Rng
    fork()
    {
        // Two statements: operands of one expression are unsequenced.
        uint64_t hi = engine_();
        uint64_t lo = engine_();
        return Rng((hi << 32) ^ lo);
    }

    /** Access the raw engine, e.g. for std::shuffle. */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
    std::uniform_real_distribution<float> uni_{0.0f, 1.0f};
};

} // namespace tensordash

#endif // TENSORDASH_COMMON_RNG_HH_
