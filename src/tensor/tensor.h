// Dense float32 tensor with value semantics.
//
// This is the numeric substrate the NN library is built on. Shapes are
// small (rank <= 4) and storage is contiguous row-major, which keeps GEMM
// and im2col cache-friendly (Core Guidelines Per.19: access memory
// predictably).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace dlion::tensor {

/// Shape of a tensor, rank 0..4. Rank-0 denotes a scalar with one element.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {}

  std::size_t rank() const { return dims_.size(); }
  std::size_t operator[](std::size_t i) const {
    DLION_DCHECK(i < dims_.size());
    return dims_[i];
  }
  std::size_t num_elements() const;
  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  std::string to_string() const;
  const std::vector<std::size_t>& dims() const { return dims_; }

 private:
  std::vector<std::size_t> dims_;
};

/// Contiguous row-major float tensor.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  Tensor(Shape shape, std::vector<float> data);

  static Tensor scalar(float v) { return Tensor(Shape{}, {v}); }

  const Shape& shape() const { return shape_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& operator[](std::size_t i) {
    DLION_DCHECK(i < data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    DLION_DCHECK(i < data_.size());
    return data_[i];
  }

  /// 2-D accessor for matrices (rank must be 2).
  float& at(std::size_t r, std::size_t c) {
    DLION_DCHECK(shape_.rank() == 2);
    return data_[r * shape_[1] + c];
  }
  float at(std::size_t r, std::size_t c) const {
    DLION_DCHECK(shape_.rank() == 2);
    return data_[r * shape_[1] + c];
  }

  /// 4-D accessor (N, C, H, W) for images.
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    DLION_DCHECK(shape_.rank() == 4);
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    DLION_DCHECK(shape_.rank() == 4);
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  void fill(float v);
  /// Reshape in place. New shape must have the same element count.
  void reshape(Shape new_shape);

  /// View the first `rows` rows of a rank>=1 tensor as a new tensor (copy).
  Tensor slice_rows(std::size_t begin, std::size_t end) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace dlion::tensor
