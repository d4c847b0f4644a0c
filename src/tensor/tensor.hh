#ifndef TENSORDASH_TENSOR_TENSOR_HH_
#define TENSORDASH_TENSOR_TENSOR_HH_

/**
 * @file
 * Dense rank-4 float tensor in NCHW layout.
 *
 * All tensors in the repository (activations, weights, gradients) use this
 * container.  Lower-rank tensors set the leading dimensions to 1:
 * a weight tensor is (F, C, Kh, Kw); a fully connected weight matrix is
 * (F, C, 1, 1); a bias is (1, C, 1, 1).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace tensordash {

/** Shape of a rank-4 tensor (n, c, h, w). */
struct Shape
{
    int n = 1;
    int c = 1;
    int h = 1;
    int w = 1;

    size_t size() const
    { return (size_t)n * (size_t)c * (size_t)h * (size_t)w; }

    bool operator==(const Shape &o) const = default;

    std::string str() const;
};

/**
 * Storage allocator of Tensor.  Buffers of at least kMapBytes are
 * mapped from the kernel and unmapped on release.  Through malloc,
 * glibc stops mapping such blocks once one has been freed and serves
 * them from per-thread arenas instead; a process that synthesizes and
 * drops hundreds of MB of tensors per sweep then keeps that arena
 * memory resident, fragmented, and its RSS creeps up with every sweep.
 */
template <typename T>
struct TensorAllocator
{
    using value_type = T;

    static constexpr size_t kMapBytes = 128 * 1024;

    TensorAllocator() = default;
    template <typename U>
    TensorAllocator(const TensorAllocator<U> &) {}

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(allocateBytes(n * sizeof(T)));
    }

    void deallocate(T *p, size_t n) { releaseBytes(p, n * sizeof(T)); }

    template <typename U>
    bool operator==(const TensorAllocator<U> &) const { return true; }

  private:
    static void *allocateBytes(size_t bytes);
    static void releaseBytes(void *p, size_t bytes);
};

/** Dense float tensor with NCHW indexing. */
class Tensor
{
  public:
    Tensor() = default;

    /** Allocate a zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Allocate a zero-filled (n, c, h, w) tensor. */
    Tensor(int n, int c, int h, int w);

    const Shape &shape() const { return shape_; }
    size_t size() const { return data_.size(); }

    float &at(int n, int c, int h, int w);
    float at(int n, int c, int h, int w) const;

    /** Flat element access. */
    float &operator[](size_t i) { return data_[i]; }
    float operator[](size_t i) const { return data_[i]; }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Set every element to @p value. */
    void fill(float value);

    /** Fill with N(mean, stddev) samples. */
    void fillNormal(Rng &rng, float mean = 0.0f, float stddev = 1.0f);

    /** Fill with uniform samples in [lo, hi). */
    void fillUniform(Rng &rng, float lo, float hi);

    /**
     * Fill with uniformly random small *integer-valued* floats in
     * [-mag, mag].  Integer-valued data keeps FP accumulation exact, so
     * tests can demand bitwise equality between dense and scheduled
     * execution orders.
     */
    void fillSmallInt(Rng &rng, int mag = 4);

    /** Zero out each element independently with probability @p p. */
    void dropout(Rng &rng, float p);

    /** @return fraction of elements equal to 0.0f. */
    double sparsity() const;

    /**
     * The zero fraction of a @p size -element tensor holding
     * @p nonzeros nonzeros (0 when empty): sparsity()'s own
     * expression, so a count taken once yields the same fraction bit
     * for bit.
     */
    static double sparsityOf(size_t nonzeros, size_t size);

    /** @return number of non-zero elements. */
    size_t nonzeros() const;

    /** Round every element through bfloat16 precision. */
    void quantizeBf16();

    /** Elementwise a*this + b*other accumulated in place. */
    void axpy(float a, const Tensor &other);

    /** Max absolute elementwise difference to @p other. */
    float maxAbsDiff(const Tensor &other) const;

    bool sameShape(const Tensor &other) const
    { return shape_ == other.shape_; }

  private:
    size_t
    index(int n, int c, int h, int w) const
    {
        return (((size_t)n * shape_.c + c) * shape_.h + h) * shape_.w + w;
    }

    Shape shape_;
    std::vector<float, TensorAllocator<float>> data_;
};

} // namespace tensordash

#endif // TENSORDASH_TENSOR_TENSOR_HH_
