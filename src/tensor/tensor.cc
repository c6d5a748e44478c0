#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <sstream>
#include <unordered_map>

// Under AddressSanitizer the recycler poisons retained buffers.
#if defined(__SANITIZE_ADDRESS__)
#define SAGDFN_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SAGDFN_ASAN 1
#endif
#endif
#ifdef SAGDFN_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "utils/check.h"

namespace sagdfn::tensor {

namespace {

// Process-wide recycler behind every zero-filled Tensor (DESIGN.md §5f,
// "Tensor storage"). A buffer whose last Tensor lets go goes on the free
// list for its exact element count, and the next allocation of that
// count takes it back instead of asking malloc, so a training step that
// repeats the previous step's shapes touches memory that is already
// mapped. Retained plus live bytes never exceed the high-water of live
// bytes: a miss that would cross it evicts retained buffers first. One
// mutex guards the lists and counters; a buffer may be released on any
// thread. Leaked, so tensors released during static destruction still
// find it.
class StorageRecycler {
 public:
  static StorageRecycler& Get() {
    static StorageRecycler* recycler = new StorageRecycler;
    return *recycler;
  }

  // A buffer of `n` floats, every one +0.0, recycled or not.
  float* Acquire(int64_t n) {
    const size_t bytes = static_cast<size_t>(n) * sizeof(float);
    float* p = nullptr;
    std::vector<float*> evicted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<float*>& list = free_[n];
      if (!list.empty()) {
        p = list.back();
        list.pop_back();
        retained_ -= bytes;
      } else {
        high_water_ = std::max(high_water_, live_ + bytes);
        Evict(bytes, &evicted);
      }
      live_ += bytes;
    }
    for (float* q : evicted) ::operator delete(q);
    if (p != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    } else {
      p = static_cast<float*>(::operator new(bytes));
    }
    std::memset(p, 0, bytes);
    return p;
  }

  void Release(float* p, int64_t n) {
    const size_t bytes = static_cast<size_t>(n) * sizeof(float);
    // Poisoned before it is listed: once listed, another thread may take
    // it and unpoison it.
    ASAN_POISON_MEMORY_REGION(p, bytes);
    std::lock_guard<std::mutex> lock(mu_);
    free_[n].push_back(p);
    live_ -= bytes;
    retained_ += bytes;
  }

  StorageBytes Stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return {static_cast<int64_t>(live_), static_cast<int64_t>(retained_),
            static_cast<int64_t>(high_water_)};
  }

 private:
  // Takes retained buffers off the lists (into `out`, freed outside the
  // lock) until a new buffer of `bytes` fits under the high-water.
  void Evict(size_t bytes, std::vector<float*>* out) {
    for (auto& [count, list] : free_) {
      const size_t each = static_cast<size_t>(count) * sizeof(float);
      while (!list.empty()) {
        if (retained_ + live_ + bytes <= high_water_) return;
        ASAN_UNPOISON_MEMORY_REGION(list.back(), each);
        out->push_back(list.back());
        list.pop_back();
        retained_ -= each;
      }
    }
  }

  std::mutex mu_;
  std::unordered_map<int64_t, std::vector<float*>> free_;
  size_t live_ = 0;
  size_t retained_ = 0;
  size_t high_water_ = 0;
};

// Zero-filled storage for `n` floats: sets `*data` and returns its
// owner, which hands the buffer back to the recycler when the last
// Tensor sharing it goes. Kept as one helper so every allocating path
// sets owner_/ptr_ the same way. An empty tensor owns an empty vector
// and has a null data().
std::shared_ptr<void> MakeStorage(int64_t n, float** data) {
  if (n == 0) {
    *data = nullptr;
    return std::make_shared<std::vector<float>>();
  }
  *data = StorageRecycler::Get().Acquire(n);
  return std::shared_ptr<float>(
      *data, [n](float* p) { StorageRecycler::Get().Release(p, n); });
}

}  // namespace

Tensor::Tensor() : Tensor(Shape({0})) {}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  owner_ = MakeStorage(shape_.NumElements(), &ptr_);
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  std::fill(t.ptr_, t.ptr_ + t.size(), value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t{Shape(std::vector<int64_t>{})};
  t.ptr_[0] = value;
  return t;
}

Tensor Tensor::FromVector(std::vector<float> values, Shape shape) {
  SAGDFN_CHECK_EQ(static_cast<int64_t>(values.size()), shape.NumElements());
  Tensor t;
  auto storage = std::make_shared<std::vector<float>>(std::move(values));
  t.ptr_ = storage->data();
  t.owner_ = std::move(storage);
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::FromExternal(std::shared_ptr<void> owner, float* ptr,
                            Shape shape) {
  SAGDFN_CHECK(ptr != nullptr || shape.NumElements() == 0)
      << "FromExternal: null storage for non-empty shape "
      << shape.ToString();
  Tensor t;
  t.owner_ = std::move(owner);
  t.ptr_ = ptr;
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t{Shape({n})};
  for (int64_t i = 0; i < n; ++i) t.ptr_[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t{Shape({n, n})};
  for (int64_t i = 0; i < n; ++i) t.ptr_[i * n + i] = 1.0f;
  return t;
}

Tensor Tensor::Uniform(Shape shape, utils::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.ptr_[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Normal(Shape shape, utils::Rng& rng, float mean,
                      float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.ptr_[i] = static_cast<float>(rng.Normal(mean, stddev));
  }
  return t;
}

float& Tensor::At(std::initializer_list<int64_t> index) {
  SAGDFN_CHECK_EQ(static_cast<int64_t>(index.size()), ndim());
  const auto strides = shape_.Strides();
  int64_t offset = 0;
  int64_t d = 0;
  for (int64_t i : index) {
    SAGDFN_DCHECK_GE(i, 0);
    SAGDFN_DCHECK_LT(i, shape_.dim(d));
    offset += i * strides[d++];
  }
  return ptr_[offset];
}

float Tensor::At(std::initializer_list<int64_t> index) const {
  return const_cast<Tensor*>(this)->At(index);
}

float Tensor::Item() const {
  SAGDFN_CHECK_EQ(size(), 1) << "Item() requires a single-element tensor";
  return ptr_[0];
}

Tensor Tensor::Reshape(std::vector<int64_t> dims) const {
  int64_t known = 1;
  int64_t infer_index = -1;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == -1) {
      SAGDFN_CHECK_EQ(infer_index, -1) << "at most one -1 dim in Reshape";
      infer_index = static_cast<int64_t>(i);
    } else {
      SAGDFN_CHECK_GE(dims[i], 0);
      known *= dims[i];
    }
  }
  if (infer_index >= 0) {
    SAGDFN_CHECK_GT(known, 0);
    SAGDFN_CHECK_EQ(size() % known, 0)
        << "cannot infer dim for reshape of " << shape_.ToString();
    dims[infer_index] = size() / known;
  }
  Shape new_shape(std::move(dims));
  SAGDFN_CHECK_EQ(new_shape.NumElements(), size())
      << "Reshape " << shape_.ToString() << " -> " << new_shape.ToString();
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::Clone() const {
  Tensor t{shape_};
  if (size() > 0) {
    std::memcpy(t.ptr_, ptr_, static_cast<size_t>(size()) * sizeof(float));
  }
  return t;
}

void Tensor::Fill(float value) {
  std::fill(ptr_, ptr_ + size(), value);
}

void Tensor::CopyFrom(const Tensor& src) {
  SAGDFN_CHECK(shape_ == src.shape_)
      << "CopyFrom shape mismatch: " << shape_.ToString() << " vs "
      << src.shape_.ToString();
  if (size() > 0) {
    std::memmove(ptr_, src.ptr_, static_cast<size_t>(size()) * sizeof(float));
  }
}

std::string Tensor::ToString(int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << shape_.ToString() << "{";
  int64_t n = std::min<int64_t>(size(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << ptr_[i];
  }
  if (size() > n) os << ", ...";
  os << "}";
  return os.str();
}

StorageBytes StorageStats() { return StorageRecycler::Get().Stats(); }

}  // namespace sagdfn::tensor
