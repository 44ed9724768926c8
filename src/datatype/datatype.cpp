#include "datatype/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/byteorder.hpp"
#include "common/diagnostics.hpp"

namespace m3rma::dt {

// ------------------------------------------------------------------- Node

struct Datatype::Node {
  enum class Kind {
    predefined,
    contiguous,
    vec,
    hvec,
    indexed,
    hindexed,
    structure,
  };

  Kind kind = Kind::predefined;
  std::string name;            // predefined only
  std::uint32_t elem = 0;      // predefined element size
  std::uint64_t count = 0;     // contiguous / vec / hvec
  std::uint64_t blocklen = 0;  // vec / hvec
  std::uint64_t stride = 0;    // vec: elements; hvec: bytes
  std::vector<std::uint64_t> blocklens;  // indexed / hindexed / structure
  std::vector<std::uint64_t> displs;     // indexed: elements; others: bytes
  std::vector<std::shared_ptr<const Node>> children;

  // Cached derived properties (set by finalize()).
  std::uint64_t size = 0;
  std::uint64_t extent = 0;
  bool contiguous_layout = false;
  bool uniform = false;
  LeafKind leaf = LeafKind::bytes;
  std::vector<SigEntry> signature;

  using RawFn =
      std::function<void(std::uint64_t off, std::uint32_t elem_size,
                         std::uint64_t nelems)>;
  void walk(std::uint64_t off, const RawFn& f) const;
};

void Datatype::Node::walk(std::uint64_t off, const RawFn& f) const {
  switch (kind) {
    case Kind::predefined:
      f(off, elem, 1);
      break;
    case Kind::contiguous: {
      const Node& c = *children[0];
      if (c.kind == Kind::predefined) {
        if (count > 0) f(off, c.elem, count);
      } else {
        for (std::uint64_t i = 0; i < count; ++i) {
          c.walk(off + i * c.extent, f);
        }
      }
      break;
    }
    case Kind::vec:
    case Kind::hvec: {
      const Node& c = *children[0];
      const std::uint64_t step =
          kind == Kind::vec ? stride * c.extent : stride;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t base = off + i * step;
        if (c.kind == Kind::predefined) {
          if (blocklen > 0) f(base, c.elem, blocklen);
        } else {
          for (std::uint64_t b = 0; b < blocklen; ++b) {
            c.walk(base + b * c.extent, f);
          }
        }
      }
      break;
    }
    case Kind::indexed:
    case Kind::hindexed: {
      const Node& c = *children[0];
      for (std::size_t k = 0; k < blocklens.size(); ++k) {
        const std::uint64_t base =
            off + (kind == Kind::indexed ? displs[k] * c.extent : displs[k]);
        if (c.kind == Kind::predefined) {
          if (blocklens[k] > 0) f(base, c.elem, blocklens[k]);
        } else {
          for (std::uint64_t b = 0; b < blocklens[k]; ++b) {
            c.walk(base + b * c.extent, f);
          }
        }
      }
      break;
    }
    case Kind::structure: {
      for (std::size_t k = 0; k < blocklens.size(); ++k) {
        const Node& c = *children[k];
        const std::uint64_t base = off + displs[k];
        if (c.kind == Kind::predefined) {
          if (blocklens[k] > 0) f(base, c.elem, blocklens[k]);
        } else {
          for (std::uint64_t b = 0; b < blocklens[k]; ++b) {
            c.walk(base + b * c.extent, f);
          }
        }
      }
      break;
    }
  }
}

// ----------------------------------------------------------- construction

namespace {

void append_sig(std::vector<SigEntry>& sig, std::uint32_t elem,
                std::uint64_t count) {
  if (count == 0) return;
  if (!sig.empty() && sig.back().elem_size == elem) {
    sig.back().count += count;
  } else {
    sig.push_back(SigEntry{elem, count});
  }
}

}  // namespace

static void finalize(Datatype::Node& n);

const Datatype::Node& Datatype::node() const {
  M3RMA_REQUIRE(node_ != nullptr, "use of an empty Datatype handle");
  return *node_;
}

static std::shared_ptr<const Datatype::Node> make_predefined(
    std::string name, std::uint32_t elem, LeafKind leaf) {
  auto n = std::make_shared<Datatype::Node>();
  n->kind = Datatype::Node::Kind::predefined;
  n->name = std::move(name);
  n->elem = elem;
  n->leaf = leaf;
  n->uniform = true;
  finalize(*n);
  return n;
}

Datatype Datatype::byte() {
  static const auto n = make_predefined("byte", 1, LeafKind::bytes);
  return Datatype(n);
}
Datatype Datatype::int8() {
  static const auto n = make_predefined("int8", 1, LeafKind::i8);
  return Datatype(n);
}
Datatype Datatype::int16() {
  static const auto n = make_predefined("int16", 2, LeafKind::i16);
  return Datatype(n);
}
Datatype Datatype::int32() {
  static const auto n = make_predefined("int32", 4, LeafKind::i32);
  return Datatype(n);
}
Datatype Datatype::int64() {
  static const auto n = make_predefined("int64", 8, LeafKind::i64);
  return Datatype(n);
}
Datatype Datatype::uint64() {
  static const auto n = make_predefined("uint64", 8, LeafKind::u64);
  return Datatype(n);
}
Datatype Datatype::float32() {
  static const auto n = make_predefined("float32", 4, LeafKind::f32);
  return Datatype(n);
}
Datatype Datatype::float64() {
  static const auto n = make_predefined("float64", 8, LeafKind::f64);
  return Datatype(n);
}

Datatype Datatype::contiguous(std::uint64_t count, const Datatype& base) {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::contiguous;
  n->count = count;
  n->children.push_back(base.node_);
  M3RMA_REQUIRE(base.valid(), "contiguous over empty datatype");
  finalize(*n);
  return Datatype(std::move(n));
}

Datatype Datatype::vector(std::uint64_t count, std::uint64_t blocklen,
                          std::uint64_t stride, const Datatype& base) {
  M3RMA_REQUIRE(base.valid(), "vector over empty datatype");
  M3RMA_REQUIRE(count == 0 || stride >= 1 || blocklen == 0,
                "vector stride must be positive");
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::vec;
  n->count = count;
  n->blocklen = blocklen;
  n->stride = stride;
  n->children.push_back(base.node_);
  finalize(*n);
  return Datatype(std::move(n));
}

Datatype Datatype::hvector(std::uint64_t count, std::uint64_t blocklen,
                           std::uint64_t stride_bytes, const Datatype& base) {
  M3RMA_REQUIRE(base.valid(), "hvector over empty datatype");
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::hvec;
  n->count = count;
  n->blocklen = blocklen;
  n->stride = stride_bytes;
  n->children.push_back(base.node_);
  finalize(*n);
  return Datatype(std::move(n));
}

Datatype Datatype::indexed(std::span<const std::uint64_t> blocklens,
                           std::span<const std::uint64_t> displs,
                           const Datatype& base) {
  M3RMA_REQUIRE(base.valid(), "indexed over empty datatype");
  M3RMA_REQUIRE(blocklens.size() == displs.size(),
                "indexed: blocklens/displs length mismatch");
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::indexed;
  n->blocklens.assign(blocklens.begin(), blocklens.end());
  n->displs.assign(displs.begin(), displs.end());
  n->children.push_back(base.node_);
  finalize(*n);
  return Datatype(std::move(n));
}

Datatype Datatype::hindexed(std::span<const std::uint64_t> blocklens,
                            std::span<const std::uint64_t> displs_bytes,
                            const Datatype& base) {
  M3RMA_REQUIRE(base.valid(), "hindexed over empty datatype");
  M3RMA_REQUIRE(blocklens.size() == displs_bytes.size(),
                "hindexed: blocklens/displs length mismatch");
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::hindexed;
  n->blocklens.assign(blocklens.begin(), blocklens.end());
  n->displs.assign(displs_bytes.begin(), displs_bytes.end());
  n->children.push_back(base.node_);
  finalize(*n);
  return Datatype(std::move(n));
}

Datatype Datatype::structure(std::span<const std::uint64_t> blocklens,
                             std::span<const std::uint64_t> displs_bytes,
                             std::span<const Datatype> types) {
  M3RMA_REQUIRE(blocklens.size() == displs_bytes.size() &&
                    blocklens.size() == types.size(),
                "structure: field array length mismatch");
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::structure;
  n->blocklens.assign(blocklens.begin(), blocklens.end());
  n->displs.assign(displs_bytes.begin(), displs_bytes.end());
  for (const Datatype& t : types) {
    M3RMA_REQUIRE(t.valid(), "structure field uses empty datatype");
    n->children.push_back(t.node_);
  }
  finalize(*n);
  return Datatype(std::move(n));
}

Datatype Datatype::subarray2d(std::uint64_t rows, std::uint64_t cols,
                              std::uint64_t sub_rows, std::uint64_t sub_cols,
                              std::uint64_t row_start,
                              std::uint64_t col_start,
                              const Datatype& base) {
  M3RMA_REQUIRE(base.valid(), "subarray over empty datatype");
  M3RMA_REQUIRE(row_start + sub_rows <= rows &&
                    col_start + sub_cols <= cols,
                "subarray exceeds the array");
  M3RMA_REQUIRE(sub_rows > 0 && sub_cols > 0, "empty subarray");
  // sub_rows blocks of sub_cols elements, stride = cols elements, shifted
  // to (row_start, col_start) with a single hindexed displacement.
  const Datatype rows_t = Datatype::vector(sub_rows, sub_cols, cols, base);
  const std::uint64_t lens[] = {1};
  const std::uint64_t displs[] = {(row_start * cols + col_start) *
                                  base.extent()};
  return Datatype::hindexed(lens, displs, rows_t);
}

static void finalize(Datatype::Node& n) {
  using Kind = Datatype::Node::Kind;
  switch (n.kind) {
    case Kind::predefined:
      n.size = n.elem;
      n.extent = n.elem;
      break;
    case Kind::contiguous: {
      const auto& c = *n.children[0];
      n.size = n.count * c.size;
      n.extent = n.count * c.extent;
      break;
    }
    case Kind::vec: {
      const auto& c = *n.children[0];
      n.size = n.count * n.blocklen * c.size;
      n.extent = n.count == 0
                     ? 0
                     : ((n.count - 1) * n.stride + n.blocklen) * c.extent;
      break;
    }
    case Kind::hvec: {
      const auto& c = *n.children[0];
      n.size = n.count * n.blocklen * c.size;
      n.extent =
          n.count == 0 ? 0 : (n.count - 1) * n.stride + n.blocklen * c.extent;
      break;
    }
    case Kind::indexed:
    case Kind::hindexed: {
      const auto& c = *n.children[0];
      n.size = 0;
      n.extent = 0;
      for (std::size_t k = 0; k < n.blocklens.size(); ++k) {
        n.size += n.blocklens[k] * c.size;
        const std::uint64_t disp = n.kind == Kind::indexed
                                       ? n.displs[k] * c.extent
                                       : n.displs[k];
        n.extent =
            std::max(n.extent, disp + n.blocklens[k] * c.extent);
      }
      break;
    }
    case Kind::structure: {
      n.size = 0;
      n.extent = 0;
      for (std::size_t k = 0; k < n.blocklens.size(); ++k) {
        const auto& c = *n.children[k];
        n.size += n.blocklens[k] * c.size;
        n.extent =
            std::max(n.extent, n.displs[k] + n.blocklens[k] * c.extent);
      }
      break;
    }
  }

  // Uniform leaf kind: inherited when all children agree.
  if (n.kind != Kind::predefined) {
    n.uniform = !n.children.empty();
    n.leaf = n.children.empty() ? LeafKind::bytes : n.children[0]->leaf;
    for (const auto& c : n.children) {
      if (!c->uniform || c->leaf != n.leaf) {
        n.uniform = false;
        break;
      }
    }
  }

  // Signature and contiguity from one element's leaf runs.
  n.signature.clear();
  std::uint64_t covered = 0;
  bool adjacent = true;
  n.walk(0, [&](std::uint64_t off, std::uint32_t elem, std::uint64_t cnt) {
    append_sig(n.signature, elem, cnt);
    if (off != covered) adjacent = false;
    covered = off + std::uint64_t{elem} * cnt;
  });
  n.contiguous_layout = adjacent && covered == n.size && n.extent == n.size;
}

// ------------------------------------------------------------------ queries

std::uint64_t Datatype::size() const { return node().size; }
std::uint64_t Datatype::extent() const { return node().extent; }
bool Datatype::is_contiguous() const { return node().contiguous_layout; }
const std::vector<SigEntry>& Datatype::signature() const {
  return node().signature;
}

bool Datatype::has_uniform_leaf() const { return node().uniform; }

LeafKind Datatype::uniform_leaf() const {
  M3RMA_REQUIRE(node().uniform,
                "datatype mixes leaf kinds; accumulate needs a uniform type");
  return node().leaf;
}

std::string Datatype::describe() const {
  const Node& n = node();
  std::ostringstream os;
  switch (n.kind) {
    case Node::Kind::predefined:
      os << n.name;
      break;
    case Node::Kind::contiguous:
      os << "contiguous(" << n.count << ", "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Node::Kind::vec:
      os << "vector(" << n.count << "x" << n.blocklen << " stride " << n.stride
         << ", " << Datatype(n.children[0]).describe() << ")";
      break;
    case Node::Kind::hvec:
      os << "hvector(" << n.count << "x" << n.blocklen << " stride "
         << n.stride << "B, " << Datatype(n.children[0]).describe() << ")";
      break;
    case Node::Kind::indexed:
      os << "indexed(" << n.blocklens.size() << " blocks, "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Node::Kind::hindexed:
      os << "hindexed(" << n.blocklens.size() << " blocks, "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Node::Kind::structure:
      os << "struct(" << n.blocklens.size() << " fields)";
      break;
  }
  return os.str();
}

// ----------------------------------------------------------------- traversal

void Datatype::for_each_block(std::uint64_t count, const BlockFn& fn) const {
  const Node& n = node();
  Block cur{0, 0, 0, 0};
  bool have = false;
  std::uint64_t packed = 0;
  auto emit = [&](std::uint64_t off, std::uint32_t elem, std::uint64_t cnt) {
    const std::uint64_t bytes = std::uint64_t{elem} * cnt;
    if (have && cur.elem_size == elem &&
        cur.mem_offset + cur.nbytes() == off) {
      cur.elem_count += cnt;
    } else {
      if (have) fn(cur);
      cur = Block{off, packed, elem, cnt};
      have = true;
    }
    packed += bytes;
  };
  for (std::uint64_t e = 0; e < count; ++e) {
    n.walk(e * n.extent, emit);
  }
  if (have) fn(cur);
}

// -------------------------------------------------------------- pack/unpack

void Datatype::pack(const std::byte* base, std::uint64_t count,
                    std::byte* out) const {
  for_each_block(count, [&](const Block& b) {
    std::memcpy(out + b.packed_offset, base + b.mem_offset, b.nbytes());
  });
}

void Datatype::unpack(const std::byte* in, std::uint64_t count,
                      std::byte* base) const {
  for_each_block(count, [&](const Block& b) {
    std::memcpy(base + b.mem_offset, in + b.packed_offset, b.nbytes());
  });
}

void Datatype::byteswap_packed(std::byte* packed, std::uint64_t count) const {
  std::uint64_t off = 0;
  for (std::uint64_t e = 0; e < count; ++e) {
    for (const SigEntry& s : node().signature) {
      swap_elements(packed + off, s.elem_size, s.count);
      off += std::uint64_t{s.elem_size} * s.count;
    }
  }
}

namespace {

/// Run-length view of a signature repeated `reps` times.
struct SigStream {
  const std::vector<SigEntry>& sig;
  std::uint64_t reps;
  std::uint64_t rep = 0;
  std::size_t idx = 0;
  std::uint64_t left = 0;

  /// Position on the next nonempty run; false when exhausted.
  bool refill() {
    while (left == 0) {
      if (rep >= reps || sig.empty()) return false;
      if (idx >= sig.size()) {
        idx = 0;
        ++rep;
        continue;
      }
      left = sig[idx].count;
      if (left == 0) ++idx;
    }
    return true;
  }
  std::uint32_t elem() const { return sig[idx].elem_size; }
  void consume(std::uint64_t n) {
    left -= n;
    if (left == 0) ++idx;
  }
};

}  // namespace

bool Datatype::matches(std::uint64_t count, const Datatype& other,
                       std::uint64_t other_count) const {
  // Compare the leaf streams of (this x count) and (other x other_count)
  // without materializing them.
  SigStream a{node().signature, count};
  SigStream b{other.node().signature, other_count};
  while (true) {
    const bool ha = a.refill();
    const bool hb = b.refill();
    if (!ha || !hb) return ha == hb;
    if (a.elem() != b.elem()) return false;
    const std::uint64_t take = std::min(a.left, b.left);
    a.consume(take);
    b.consume(take);
  }
}

}  // namespace m3rma::dt
