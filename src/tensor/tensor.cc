#include "tensor/tensor.hh"

#include <sys/mman.h>

#include <cmath>
#include <new>
#include <sstream>

#include "common/logging.hh"
#include "tensor/bfloat16.hh"

namespace tensordash {

std::string
Shape::str() const
{
    std::ostringstream os;
    os << "(" << n << ", " << c << ", " << h << ", " << w << ")";
    return os.str();
}

template <typename T>
void *
TensorAllocator<T>::allocateBytes(size_t bytes)
{
    if (bytes < kMapBytes)
        return ::operator new(bytes);
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

template <typename T>
void
TensorAllocator<T>::releaseBytes(void *p, size_t bytes)
{
    if (bytes < kMapBytes)
        ::operator delete(p);
    else
        ::munmap(p, bytes);
}

template struct TensorAllocator<float>;

Tensor::Tensor(Shape shape) : shape_(shape), data_(shape.size(), 0.0f)
{
    TD_ASSERT(shape.n > 0 && shape.c > 0 && shape.h > 0 && shape.w > 0,
              "invalid tensor shape %s", shape.str().c_str());
}

Tensor::Tensor(int n, int c, int h, int w) : Tensor(Shape{n, c, h, w})
{
}

float &
Tensor::at(int n, int c, int h, int w)
{
    return data_[index(n, c, h, w)];
}

float
Tensor::at(int n, int c, int h, int w) const
{
    return data_[index(n, c, h, w)];
}

void
Tensor::fill(float value)
{
    for (auto &v : data_)
        v = value;
}

void
Tensor::fillNormal(Rng &rng, float mean, float stddev)
{
    for (auto &v : data_)
        v = rng.normal(mean, stddev);
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &v : data_)
        v = rng.uniform(lo, hi);
}

void
Tensor::fillSmallInt(Rng &rng, int mag)
{
    for (auto &v : data_)
        v = (float)rng.uniformInt(-mag, mag);
}

void
Tensor::dropout(Rng &rng, float p)
{
    // Branchless select over a raw walk: the draw order (one uniform
    // per element) must match the branchy form bit-for-bit — results
    // are content-addressed on it.
    float *v = data_.data();
    size_t n = data_.size();
    for (size_t i = 0; i < n; ++i)
        v[i] = rng.bernoulli(p) ? 0.0f : v[i];
}

double
Tensor::sparsity() const
{
    return sparsityOf(nonzeros(), data_.size());
}

double
Tensor::sparsityOf(size_t nonzeros, size_t size)
{
    if (size == 0)
        return 0.0;
    return 1.0 - (double)nonzeros / (double)size;
}

size_t
Tensor::nonzeros() const
{
    // Four independent accumulators so no single add chain serialises
    // the compare stream.
    const float *v = data_.data();
    size_t n = data_.size();
    size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0, i = 0;
    for (; i + 4 <= n; i += 4) {
        c0 += v[i] != 0.0f;
        c1 += v[i + 1] != 0.0f;
        c2 += v[i + 2] != 0.0f;
        c3 += v[i + 3] != 0.0f;
    }
    for (; i < n; ++i)
        c0 += v[i] != 0.0f;
    return c0 + c1 + c2 + c3;
}

void
Tensor::quantizeBf16()
{
    for (auto &v : data_)
        v = bf16Round(v);
}

void
Tensor::axpy(float a, const Tensor &other)
{
    TD_ASSERT(sameShape(other), "axpy shape mismatch %s vs %s",
              shape_.str().c_str(), other.shape_.str().c_str());
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] = a * data_[i] + other.data_[i];
}

float
Tensor::maxAbsDiff(const Tensor &other) const
{
    TD_ASSERT(sameShape(other), "maxAbsDiff shape mismatch %s vs %s",
              shape_.str().c_str(), other.shape_.str().c_str());
    float worst = 0.0f;
    for (size_t i = 0; i < data_.size(); ++i)
        worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
    return worst;
}

} // namespace tensordash
