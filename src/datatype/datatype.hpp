// MPI-style datatype engine.
//
// Strawman requirement 7 (paper §IV): "Transfers of noncontiguous data,
// including strided (vector) and scatter/gather must be supported", using
// "existing MPI concepts such as ... datatypes for heterogeneity and
// noncontiguous data".
//
// A Datatype is an immutable tree describing a memory layout:
//   predefined -> contiguous -> vector/hvector -> indexed/hindexed -> struct
// It provides
//   * size()/extent() queries,
//   * pack/unpack between a laid-out buffer and a packed wire image,
//   * for_each_block(): the maximal contiguous segments of a (type, count)
//     region — RMA layers turn these into per-segment network operations,
//   * byteswap_packed(): endianness conversion of a packed image by leaf
//     element size (paper §III-B3 heterogeneity),
//   * type signatures for origin/target compatibility checking.
//
// Datatype values are cheap shared handles; the tree itself is immutable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace m3rma::dt {

/// One maximal contiguous run of identical-size leaf elements.
struct Block {
  std::uint64_t mem_offset;     ///< byte offset from the region base
  std::uint64_t packed_offset;  ///< byte offset in the packed image
  std::uint32_t elem_size;      ///< leaf element size in bytes
  std::uint64_t elem_count;     ///< number of leaf elements in the run

  std::uint64_t nbytes() const {
    return std::uint64_t{elem_size} * elem_count;
  }
};

/// Numeric identity of a predefined leaf type. Needed by accumulate-style
/// operations, which must know how to combine elements, not just move them.
enum class LeafKind : std::uint8_t {
  bytes,  // opaque (byte)
  i8,
  i16,
  i32,
  i64,
  u64,
  f32,
  f64,
};

/// One entry of a type signature: `count` leaf elements of `elem_size`
/// bytes, in packed order (adjacent equal sizes collapsed).
struct SigEntry {
  std::uint32_t elem_size;
  std::uint64_t count;
  friend bool operator==(const SigEntry&, const SigEntry&) = default;
};

class Datatype {
 public:
  /// Default-constructed handle is empty and unusable; assign before use.
  Datatype() = default;

  // ----- predefined types -------------------------------------------------
  static Datatype byte();
  static Datatype int8();
  static Datatype int16();
  static Datatype int32();
  static Datatype int64();
  static Datatype uint64();
  static Datatype float32();
  static Datatype float64();

  /// Predefined type matching a C++ arithmetic type.
  template <class T>
  static Datatype of();

  // ----- constructors for derived types ------------------------------------
  static Datatype contiguous(std::uint64_t count, const Datatype& base);
  /// `count` blocks of `blocklen` elements, block starts `stride` elements
  /// apart (stride measured in base-type extents, like MPI_Type_vector).
  static Datatype vector(std::uint64_t count, std::uint64_t blocklen,
                         std::uint64_t stride, const Datatype& base);
  /// vector with stride in bytes (MPI_Type_create_hvector).
  static Datatype hvector(std::uint64_t count, std::uint64_t blocklen,
                          std::uint64_t stride_bytes, const Datatype& base);
  /// Scatter/gather: block i has blocklens[i] elements at element
  /// displacement displs[i] (MPI_Type_indexed).
  static Datatype indexed(std::span<const std::uint64_t> blocklens,
                          std::span<const std::uint64_t> displs,
                          const Datatype& base);
  /// indexed with byte displacements (MPI_Type_create_hindexed).
  static Datatype hindexed(std::span<const std::uint64_t> blocklens,
                           std::span<const std::uint64_t> displs_bytes,
                           const Datatype& base);
  /// Heterogeneous record (MPI_Type_create_struct); field i is blocklens[i]
  /// elements of types[i] at byte displacement displs_bytes[i].
  static Datatype structure(std::span<const std::uint64_t> blocklens,
                            std::span<const std::uint64_t> displs_bytes,
                            std::span<const Datatype> types);
  /// 2D subarray (MPI_Type_create_subarray, row-major): the
  /// sub_rows x sub_cols region at (row_start, col_start) of a
  /// rows x cols array of `base`. Note: unlike the other constructors the
  /// element's extent spans only the covered rows; use it for one region
  /// per transfer (count = 1), the common halo/patch case.
  static Datatype subarray2d(std::uint64_t rows, std::uint64_t cols,
                             std::uint64_t sub_rows, std::uint64_t sub_cols,
                             std::uint64_t row_start,
                             std::uint64_t col_start, const Datatype& base);

  bool valid() const { return node_ != nullptr; }

  /// Packed payload bytes of one element of this type.
  std::uint64_t size() const;
  /// Memory span of one element, including holes.
  std::uint64_t extent() const;
  /// True when one element occupies exactly size() adjacent bytes.
  bool is_contiguous() const;
  /// Leaf-run signature (collapsed); two types may be paired as
  /// origin/target of a transfer iff their signatures are equal elementwise
  /// after scaling by the respective counts.
  const std::vector<SigEntry>& signature() const;
  /// The single numeric kind shared by every leaf, if uniform (required by
  /// accumulate and RMW); LeafKind::bytes-typed and mixed trees report their
  /// kind / nullopt-like bytes accordingly.
  bool has_uniform_leaf() const;
  LeafKind uniform_leaf() const;  ///< valid only when has_uniform_leaf()

  /// Human-readable description for diagnostics.
  std::string describe() const;

  // ----- layout traversal --------------------------------------------------

  using BlockFn = std::function<void(const Block&)>;
  /// Visit the maximal contiguous runs of `count` consecutive elements of
  /// this type laid out starting at region offset 0, in packed order.
  void for_each_block(std::uint64_t count, const BlockFn& fn) const;

  // ----- pack / unpack ------------------------------------------------------

  /// Gather `count` elements laid out at `base` into packed bytes at `out`
  /// (out must hold count*size() bytes).
  void pack(const std::byte* base, std::uint64_t count, std::byte* out) const;
  /// Scatter packed bytes into the layout at `base`.
  void unpack(const std::byte* in, std::uint64_t count,
              std::byte* base) const;
  /// Reverse the byte order of every leaf element inside a packed image of
  /// `count` elements (no-op for 1-byte leaves).
  void byteswap_packed(std::byte* packed, std::uint64_t count) const;

  /// True if `count` elements of this type carry the same leaf sequence as
  /// `other_count` elements of `other` (MPI signature matching).
  bool matches(std::uint64_t count, const Datatype& other,
               std::uint64_t other_count) const;

  friend bool operator==(const Datatype& a, const Datatype& b) {
    return a.node_ == b.node_;
  }

  /// Implementation node; opaque outside datatype.cpp but publicly named so
  /// file-local helpers can be defined over it.
  struct Node;

 private:
  explicit Datatype(std::shared_ptr<const Node> n) : node_(std::move(n)) {}
  const Node& node() const;

  std::shared_ptr<const Node> node_;
};

template <class T>
Datatype Datatype::of() {
  if constexpr (sizeof(T) == 1) {
    return byte();
  } else if constexpr (std::is_same_v<T, float>) {
    return float32();
  } else if constexpr (std::is_same_v<T, double>) {
    return float64();
  } else if constexpr (sizeof(T) == 2) {
    return int16();
  } else if constexpr (sizeof(T) == 4) {
    return int32();
  } else {
    static_assert(sizeof(T) == 8, "unsupported element width");
    return int64();
  }
}

}  // namespace m3rma::dt
