// Element-wise atomic operations executed at the target.
//
// Covers both accumulate-style reductions (MPI_Accumulate / the strawman's
// accumulate optype) and the conditional/unconditional read-modify-write
// operations §V says the Forum was considering (fetch-and-add,
// compare-and-swap, swap).
//
// Operands arrive in the *target node's* byte order; on targets whose
// simulated endianness differs from the simulation host, values are swapped
// to host order for arithmetic and back for storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/byteorder.hpp"

namespace m3rma::dt {
enum class LeafKind : std::uint8_t;
}  // namespace m3rma::dt

namespace m3rma::portals {

/// Reduction applied per element by accumulate.
enum class AccOp : std::uint8_t {
  replace,  // remote write (put semantics through the atomic path)
  sum,
  prod,
  min,
  max,
  band,
  bor,
  bxor,
};

/// Read-modify-write with a fetched result.
enum class RmwOp : std::uint8_t {
  fetch_add,
  swap,          // unconditional RMW
  compare_swap,  // conditional RMW: payload = [compare][desired]
};

/// Leaf numeric type of atomic elements.
enum class NumType : std::uint8_t {
  i8,
  i16,
  i32,
  i64,
  u64,
  f32,
  f64,
};

std::size_t num_size(NumType t);
/// Element type of a datatype leaf (opaque bytes combine as i8).
NumType num_type_of(dt::LeafKind k);
bool acc_op_valid_for(AccOp op, NumType t);

/// Apply `op` element-wise: target[i] = op(target[i], operand[i]).
/// `bytes` must be a multiple of num_size(t). `target_endian` is the byte
/// order of both the target memory and the operand buffer.
void apply_acc(AccOp op, NumType t, std::byte* target,
               const std::byte* operand, std::size_t bytes,
               Endian target_endian);

/// Apply a fetched RMW to a single element at `target`; returns the
/// previous value (in target byte order). `payload` holds one element for
/// fetch_add/swap and two ([compare][desired]) for compare_swap.
std::vector<std::byte> apply_rmw(RmwOp op, NumType t, std::byte* target,
                                 std::span<const std::byte> payload,
                                 Endian target_endian);

}  // namespace m3rma::portals
