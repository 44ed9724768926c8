#include "portals/atomics.hpp"

#include <algorithm>
#include <cstring>

#include "common/diagnostics.hpp"
#include "datatype/datatype.hpp"

namespace m3rma::portals {

std::size_t num_size(NumType t) {
  switch (t) {
    case NumType::i8:
      return 1;
    case NumType::i16:
      return 2;
    case NumType::i32:
    case NumType::f32:
      return 4;
    case NumType::i64:
    case NumType::u64:
    case NumType::f64:
      return 8;
  }
  throw Panic("unknown NumType");
}

NumType num_type_of(dt::LeafKind k) {
  using dt::LeafKind;
  switch (k) {
    case LeafKind::bytes:
    case LeafKind::i8:
      return NumType::i8;
    case LeafKind::i16:
      return NumType::i16;
    case LeafKind::i32:
      return NumType::i32;
    case LeafKind::i64:
      return NumType::i64;
    case LeafKind::u64:
      return NumType::u64;
    case LeafKind::f32:
      return NumType::f32;
    case LeafKind::f64:
      return NumType::f64;
  }
  throw Panic("unknown LeafKind");
}

bool acc_op_valid_for(AccOp op, NumType t) {
  const bool is_float = t == NumType::f32 || t == NumType::f64;
  switch (op) {
    case AccOp::band:
    case AccOp::bor:
    case AccOp::bxor:
      return !is_float;  // bitwise ops are integer-only, as in MPI
    default:
      return true;
  }
}

namespace {

template <class T>
T load(const std::byte* p, bool swap) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  if (swap) {
    auto* b = reinterpret_cast<std::byte*>(&v);
    swap_element(b, sizeof(T));
  }
  return v;
}

template <class T>
void store(std::byte* p, T v, bool swap) {
  if (swap) {
    auto* b = reinterpret_cast<std::byte*>(&v);
    swap_element(b, sizeof(T));
  }
  std::memcpy(p, &v, sizeof(T));
}

template <class T>
T combine(AccOp op, T a, T b) {
  switch (op) {
    case AccOp::replace:
      return b;
    case AccOp::sum:
      return static_cast<T>(a + b);
    case AccOp::prod:
      return static_cast<T>(a * b);
    case AccOp::min:
      return std::min(a, b);
    case AccOp::max:
      return std::max(a, b);
    case AccOp::band:
      if constexpr (std::is_integral_v<T>) {
        return static_cast<T>(a & b);
      }
      break;
    case AccOp::bor:
      if constexpr (std::is_integral_v<T>) {
        return static_cast<T>(a | b);
      }
      break;
    case AccOp::bxor:
      if constexpr (std::is_integral_v<T>) {
        return static_cast<T>(a ^ b);
      }
      break;
  }
  throw UsageError("accumulate op invalid for element type");
}

template <class T>
void acc_typed(AccOp op, std::byte* target, const std::byte* operand,
               std::size_t count, bool swap) {
  for (std::size_t i = 0; i < count; ++i) {
    const T cur = load<T>(target + i * sizeof(T), swap);
    const T val = load<T>(operand + i * sizeof(T), swap);
    store<T>(target + i * sizeof(T), combine(op, cur, val), swap);
  }
}

template <class T>
std::vector<std::byte> rmw_typed(RmwOp op, std::byte* target,
                                 std::span<const std::byte> payload,
                                 bool swap) {
  const T old = load<T>(target, swap);
  std::vector<std::byte> fetched(sizeof(T));
  store<T>(fetched.data(), old, swap);
  switch (op) {
    case RmwOp::fetch_add: {
      M3RMA_REQUIRE(payload.size() == sizeof(T), "fetch_add operand size");
      const T add = load<T>(payload.data(), swap);
      store<T>(target, static_cast<T>(old + add), swap);
      break;
    }
    case RmwOp::swap: {
      M3RMA_REQUIRE(payload.size() == sizeof(T), "swap operand size");
      const T val = load<T>(payload.data(), swap);
      store<T>(target, val, swap);
      break;
    }
    case RmwOp::compare_swap: {
      M3RMA_REQUIRE(payload.size() == 2 * sizeof(T),
                    "compare_swap payload must be [compare][desired]");
      const T cmp = load<T>(payload.data(), swap);
      const T des = load<T>(payload.data() + sizeof(T), swap);
      if (old == cmp) store<T>(target, des, swap);
      break;
    }
  }
  return fetched;
}

template <class Fn>
auto dispatch_num(NumType t, Fn&& fn) {
  switch (t) {
    case NumType::i8:
      return fn(std::int8_t{});
    case NumType::i16:
      return fn(std::int16_t{});
    case NumType::i32:
      return fn(std::int32_t{});
    case NumType::i64:
      return fn(std::int64_t{});
    case NumType::u64:
      return fn(std::uint64_t{});
    case NumType::f32:
      return fn(float{});
    case NumType::f64:
      return fn(double{});
  }
  throw Panic("unknown NumType");
}

}  // namespace

void apply_acc(AccOp op, NumType t, std::byte* target,
               const std::byte* operand, std::size_t bytes,
               Endian target_endian) {
  const std::size_t es = num_size(t);
  M3RMA_REQUIRE(bytes % es == 0, "atomic length not a multiple of the type");
  M3RMA_REQUIRE(acc_op_valid_for(op, t), "bitwise accumulate on float type");
  const bool swap = target_endian != host_endian();
  dispatch_num(t, [&](auto tag) {
    using T = decltype(tag);
    acc_typed<T>(op, target, operand, bytes / es, swap);
  });
}

std::vector<std::byte> apply_rmw(RmwOp op, NumType t, std::byte* target,
                                 std::span<const std::byte> payload,
                                 Endian target_endian) {
  const bool swap = target_endian != host_endian();
  return dispatch_num(t, [&](auto tag) {
    using T = decltype(tag);
    return rmw_typed<T>(op, target, payload, swap);
  });
}

}  // namespace m3rma::portals
