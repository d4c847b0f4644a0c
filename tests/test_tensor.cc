/**
 * @file
 * Unit tests for the dense tensor container and bfloat16 type.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "tensor/bfloat16.hh"
#include "tensor/tensor.hh"

namespace tensordash {
namespace {

TEST(Shape, SizeAndEquality)
{
    Shape s{2, 3, 4, 5};
    EXPECT_EQ(s.size(), 120u);
    EXPECT_EQ(s, (Shape{2, 3, 4, 5}));
    EXPECT_NE(s, (Shape{2, 3, 4, 6}));
    EXPECT_EQ(s.str(), "(2, 3, 4, 5)");
}

TEST(Tensor, ZeroInitialised)
{
    Tensor t(2, 3, 4, 5);
    EXPECT_EQ(t.size(), 120u);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
    EXPECT_DOUBLE_EQ(t.sparsity(), 1.0);
}

TEST(Tensor, IndexingIsNchw)
{
    Tensor t(2, 3, 4, 5);
    t.at(1, 2, 3, 4) = 7.0f;
    // NCHW flat index: ((n*C + c)*H + h)*W + w
    size_t flat = ((1 * 3 + 2) * 4 + 3) * 5 + 4;
    EXPECT_EQ(t[flat], 7.0f);
}

TEST(Tensor, FillAndSparsity)
{
    Tensor t(1, 1, 2, 2);
    t.fill(3.0f);
    EXPECT_DOUBLE_EQ(t.sparsity(), 0.0);
    t.at(0, 0, 0, 0) = 0.0f;
    EXPECT_DOUBLE_EQ(t.sparsity(), 0.25);
    EXPECT_EQ(t.nonzeros(), 3u);
    // A count taken once yields sparsity()'s fraction bit for bit.
    EXPECT_EQ(Tensor::sparsityOf(t.nonzeros(), t.size()), t.sparsity());
    EXPECT_EQ(Tensor::sparsityOf(0, 0), Tensor().sparsity());
    EXPECT_EQ(Tensor::sparsityOf(0, 0), 0.0);
}

TEST(Tensor, DropoutHitsTargetRate)
{
    Rng rng(11);
    Tensor t(1, 8, 32, 32);
    t.fill(1.0f);
    t.dropout(rng, 0.6f);
    EXPECT_NEAR(t.sparsity(), 0.6, 0.03);
}

TEST(Tensor, FillSmallIntIsIntegerValued)
{
    Rng rng(3);
    Tensor t(1, 4, 8, 8);
    t.fillSmallInt(rng, 4);
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t[i], std::round(t[i]));
        EXPECT_LE(std::fabs(t[i]), 4.0f);
    }
}

TEST(Tensor, AxpyAndMaxAbsDiff)
{
    Tensor a(1, 1, 1, 3), b(1, 1, 1, 3);
    a[0] = 1; a[1] = 2; a[2] = 3;
    b[0] = 10; b[1] = 20; b[2] = 30;
    a.axpy(2.0f, b); // a = 2a + b
    EXPECT_EQ(a[0], 12.0f);
    EXPECT_EQ(a[1], 24.0f);
    EXPECT_EQ(a[2], 36.0f);
    EXPECT_EQ(a.maxAbsDiff(b), 6.0f);
}

TEST(Tensor, ShapeMismatchPanics)
{
    setLogThrowMode(true);
    Tensor a(1, 1, 1, 3), b(1, 1, 1, 4);
    EXPECT_THROW(a.axpy(1.0f, b), SimError);
    setLogThrowMode(false);
}

TEST(Bfloat16, ExactForSmallIntegers)
{
    for (int v = -128; v <= 128; ++v)
        EXPECT_EQ(bf16Round((float)v), (float)v);
}

TEST(Bfloat16, ZeroPreserved)
{
    EXPECT_EQ(bfloat16(0.0f).bits(), 0);
    EXPECT_EQ(bf16Round(0.0f), 0.0f);
    // Negative zero keeps its sign bit.
    EXPECT_EQ(bfloat16(-0.0f).bits(), 0x8000);
}

TEST(Bfloat16, RoundsToNearestEven)
{
    // 1.0 + 2^-8 is exactly halfway between representable 1.0 and
    // 1.0 + 2^-7; round-to-nearest-even picks 1.0.
    float halfway = 1.0f + std::ldexp(1.0f, -8);
    EXPECT_EQ(bf16Round(halfway), 1.0f);
    // Just above the halfway point rounds up.
    float above = 1.0f + std::ldexp(1.0f, -8) + std::ldexp(1.0f, -12);
    EXPECT_EQ(bf16Round(above), 1.0f + std::ldexp(1.0f, -7));
}

TEST(Bfloat16, RelativeErrorBounded)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        float v = rng.uniform(-100.0f, 100.0f);
        if (v == 0.0f)
            continue;
        float r = bf16Round(v);
        EXPECT_LE(std::fabs(r - v) / std::fabs(v), 1.0f / 128.0f);
    }
}

TEST(Bfloat16, InfinityAndNan)
{
    float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(bf16Round(inf), inf);
    EXPECT_EQ(bf16Round(-inf), -inf);
    EXPECT_TRUE(std::isnan(bf16Round(std::nanf(""))));
}

TEST(Bfloat16, QuantizeTensor)
{
    Rng rng(23);
    Tensor t(1, 2, 4, 4);
    t.fillNormal(rng, 0.0f, 1.0f);
    Tensor orig = t;
    t.quantizeBf16();
    EXPECT_LE(t.maxAbsDiff(orig), 0.05f);
    // Quantization must be idempotent.
    Tensor once = t;
    t.quantizeBf16();
    EXPECT_EQ(t.maxAbsDiff(once), 0.0f);
}

} // namespace
} // namespace tensordash
