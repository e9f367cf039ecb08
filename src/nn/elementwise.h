// Elementwise joining ops for graph-structured models (api/graph_model.h):
// the two ways the paper's study networks merge branches -- ResNet's
// residual ADD (He et al. 2016) and Inception's channel CONCAT (Szegedy et
// al. 2016).
//
// Both execute in exact host-double arithmetic, on the datapath path AND on
// the FP32 reference chain: the paper's approximation lives entirely in the
// inner products (nibble-decomposed FP16 / INT through the IPU), so joins
// contribute no error of their own and the per-branch error metrics compose
// transparently through them.  Deterministic by construction: add sums its
// operands in argument order, concat stacks channels in argument order.
#pragma once

#include <vector>

#include "nn/tensor.h"

namespace mpipu {

/// Elementwise sum of two or more same-shape tensors (the residual join).
/// Operands are summed left to right in `parts` order, so the result is
/// bit-deterministic.  Throws std::invalid_argument on a shape mismatch or
/// fewer than two operands.
Tensor tensor_add(const std::vector<const Tensor*>& parts);

/// Two-operand convenience overload: a + b.
Tensor tensor_add(const Tensor& a, const Tensor& b);

/// Channel concatenation of two or more tensors sharing (h, w) -- the
/// Inception branch join.  Channels stack in `parts` order.  Throws
/// std::invalid_argument on a spatial mismatch or fewer than two operands.
Tensor channel_concat(const std::vector<const Tensor*>& parts);

}  // namespace mpipu
