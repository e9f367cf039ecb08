// Post-ops shared by every forward path: the pooling enum a GraphNode
// carries and the one function that applies ReLU-then-pool to a node's
// output.  Models themselves are GraphModels (api/graph_model.h); a layer
// chain is the degenerate graph GraphModel::Builder builds one conv at a
// time.
#pragma once

#include "nn/tensor.h"

namespace mpipu {

/// Pooling applied after the (optional) ReLU of a node.
enum class PoolOp { kNone, kMax2, kGlobalAvg };

/// Post-ops applied to a node's output: ReLU first, then pooling.  The
/// single definition every forward path shares (CompiledModel, the graph
/// reference chain).
Tensor apply_post_ops(Tensor t, bool relu, PoolOp pool);

}  // namespace mpipu
