#include "common/counter_rng.hh"

#include <cmath>
#include <numbers>

namespace tensordash {

double
CounterRng::normal()
{
    double r = std::sqrt(-2.0 * std::log(uniformPositive()));
    double theta = 2.0 * std::numbers::pi * uniform();
    return r * std::cos(theta);
}

double
CounterRng::gamma(double shape)
{
    // Shapes below 1 boost to shape + 1 and scale by U^(1/shape)
    // (Marsaglia & Tsang 2000).
    if (shape < 1.0) {
        double g = gamma(shape + 1.0); // sequenced before the boost
        return g * std::pow(uniformPositive(), 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        double u = uniformPositive();
        if (u < 1.0 - 0.0331 * (x * x) * (x * x))
            return d * v;
        if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
            return d * v;
    }
}

double
CounterRng::beta(double a, double b)
{
    double x = gamma(a);
    double y = gamma(b); // separate statements: draw order is fixed
    // Both gammas underflow only when both shapes are tiny.
    if (x + y <= 0.0)
        return 0.5;
    return x / (x + y);
}

} // namespace tensordash
