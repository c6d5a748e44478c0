#ifndef SAGDFN_TENSOR_TENSOR_H_
#define SAGDFN_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "tensor/shape.h"
#include "utils/rng.h"

namespace sagdfn::tensor {

/// Dense float32 tensor with shared, contiguous row-major storage.
///
/// Tensors are value types: copying a Tensor copies a handle to the same
/// storage (cheap); use Clone() for a deep copy. All shape errors are
/// programming errors and abort via SAGDFN_CHECK. The library is
/// deliberately float32-only and CPU-only — it is the substrate for the
/// SAGDFN reproduction, not a general framework.
class Tensor {
 public:
  /// Constructs an empty rank-1 tensor of size 0.
  Tensor();

  /// Constructs an uninitialized-to-zero tensor of the given shape.
  explicit Tensor(Shape shape);

  // -- Factories -----------------------------------------------------------

  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  /// Rank-0 scalar.
  static Tensor Scalar(float value);
  /// Takes ownership of `values`; size must equal shape.NumElements().
  static Tensor FromVector(std::vector<float> values, Shape shape);
  /// Wraps storage the tensor does not own — `ptr` must point at
  /// shape.NumElements() contiguous floats kept alive by `owner` (e.g. a
  /// memory-mapped weight file). No copy is made. If the backing memory
  /// is mapped read-only, callers must treat the tensor as read-only:
  /// writing through data() would fault.
  static Tensor FromExternal(std::shared_ptr<void> owner, float* ptr,
                             Shape shape);
  /// [0, 1, ..., n-1] as a rank-1 tensor.
  static Tensor Arange(int64_t n);
  /// N x N identity.
  static Tensor Eye(int64_t n);
  /// I.i.d. uniform samples in [lo, hi).
  static Tensor Uniform(Shape shape, utils::Rng& rng, float lo = 0.0f,
                        float hi = 1.0f);
  /// I.i.d. normal samples.
  static Tensor Normal(Shape shape, utils::Rng& rng, float mean = 0.0f,
                       float stddev = 1.0f);

  // -- Introspection --------------------------------------------------------

  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return shape_.ndim(); }
  int64_t dim(int64_t d) const { return shape_.dim(d); }
  int64_t size() const { return shape_.NumElements(); }

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }

  /// Element access by flat row-major offset.
  float& operator[](int64_t i) { return ptr_[i]; }
  float operator[](int64_t i) const { return ptr_[i]; }

  /// Element access by multi-index (size must equal ndim()).
  float& At(std::initializer_list<int64_t> index);
  float At(std::initializer_list<int64_t> index) const;

  /// Value of a rank-0 or single-element tensor.
  float Item() const;

  /// True if this handle shares storage with `other`.
  bool SharesStorageWith(const Tensor& other) const {
    return owner_ == other.owner_ && ptr_ == other.ptr_;
  }

  /// True if this handle is the only one keeping its storage alive: no
  /// copy, Reshape view or other Tensor shares it. False for FromExternal
  /// tensors without an owner. A caller holding the only handle may take
  /// the storage over instead of copying it.
  bool OwnsStorageAlone() const { return owner_ && owner_.use_count() == 1; }

  // -- Shape manipulation (storage-sharing where possible) ------------------

  /// Reinterprets the data with a new shape of equal element count. One
  /// dimension may be -1 (inferred). Shares storage.
  Tensor Reshape(std::vector<int64_t> dims) const;

  /// Deep copy.
  Tensor Clone() const;

  /// Writes `value` into every element.
  void Fill(float value);

  /// Copies the contents of `src` (same shape required) into this tensor.
  void CopyFrom(const Tensor& src);

  /// Renders values for debugging, e.g. "Tensor[2, 2]{1, 2, 3, 4}".
  /// Truncates long tensors.
  std::string ToString(int64_t max_elements = 32) const;

 private:
  /// Keeps the backing storage alive. For zero-filled tensors this owns
  /// a recycled buffer (see StorageStats()); for FromVector tensors a
  /// std::vector<float>; for FromExternal views it owns whatever keeps
  /// the external memory valid (e.g. a mapped file handle). `ptr_`
  /// points at the first element inside that storage.
  std::shared_ptr<void> owner_;
  float* ptr_ = nullptr;
  Shape shape_;
};

/// Bytes held by the storage recycler behind every zero-filled Tensor
/// (constructors, Zeros/Ones/Full/..., Clone and every op output).
/// FromVector and FromExternal storage is not counted.
struct StorageBytes {
  /// In buffers some Tensor still holds.
  int64_t live = 0;
  /// In released buffers kept for reuse by the next allocation of the
  /// same element count.
  int64_t retained = 0;
  /// Most `live` bytes ever held at once. live + retained never exceeds
  /// it: an allocation that would cross it frees retained buffers first.
  int64_t high_water = 0;
};

/// A snapshot of the recycler's counters (thread-safe).
StorageBytes StorageStats();

}  // namespace sagdfn::tensor

#endif  // SAGDFN_TENSOR_TENSOR_H_
