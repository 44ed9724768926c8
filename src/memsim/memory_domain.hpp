// Per-node memory model.
//
// The paper (§III-B2) stresses that an MPI-3 RMA interface must work on
// non-cache-coherent machines such as the NEC SX series: the scalar unit
// reads through a write-through cache that is NOT invalidated by writes
// from other processors or from the network, so a target must execute a
// memory fence (or read uncached with vector instructions) to observe
// remotely written data.
//
// MemoryDomain models exactly that:
//   * coherent domains behave like plain memory;
//   * non-coherent domains keep scalar-cache line copies — cpu_read() can
//     return stale data after a nic_write() until fence() clears the cache
//     or cpu_read_uncached() (the vector path) is used.
//
// The domain also provides the node's RMA-addressable arena. Addresses are
// 64-bit offsets into the arena; raw() exposes a host pointer so local code
// can use natural C++ buffers on coherent nodes. The arena is one anonymous
// mapping: it reads as zeros, and a page costs host memory only once it is
// first touched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/byteorder.hpp"
#include "common/diagnostics.hpp"
#include "simtime/engine.hpp"

namespace m3rma::memsim {

enum class Coherence : std::uint8_t {
  coherent,
  /// NEC-SX-like: scalar write-through cache, no invalidation on remote
  /// writes.
  noncoherent_writethrough,
};

/// Line width of a non-coherent domain's scalar cache.
inline constexpr std::uint64_t kCacheLine = 64;

struct DomainConfig {
  std::size_t size = std::size_t{16} << 20;
  Coherence coherence = Coherence::coherent;
  Endian endian = host_endian();
  /// Width of the node's address space (paper §III-B3: a special-purpose PE
  /// may be 32-bit while the host is 64-bit). attach() enforces that RMA
  /// buffers are representable.
  int addr_bits = 64;
  /// Cost of a scalar-cache invalidating memory fence.
  sim::Time fence_cost_ns = 600;
};

class MemoryDomain {
 public:
  explicit MemoryDomain(DomainConfig cfg);
  ~MemoryDomain();
  MemoryDomain(const MemoryDomain&) = delete;
  MemoryDomain& operator=(const MemoryDomain&) = delete;

  const DomainConfig& config() const { return cfg_; }

  // ----- allocation ------------------------------------------------------

  /// Allocate `bytes` from the arena (first-fit free list). Returns the
  /// domain address; address 0 is never returned (reserved as null).
  std::uint64_t alloc(std::size_t bytes, std::size_t align = 8);
  void dealloc(std::uint64_t addr);
  std::size_t bytes_in_use() const { return in_use_; }

  /// Host pointer to `addr`. Valid as long as the domain lives; the arena
  /// never reallocates.
  std::byte* raw(std::uint64_t addr);
  const std::byte* raw(std::uint64_t addr) const;

  /// Bounds check helper for RMA layers.
  bool contains(std::uint64_t addr, std::size_t len) const;

  // ----- CPU-side access (the owning rank) -------------------------------

  void cpu_write(std::uint64_t addr, std::span<const std::byte> data);
  /// Scalar-unit read: on a non-coherent domain this may serve stale cached
  /// lines written before the last remote update.
  void cpu_read(std::uint64_t addr, std::span<std::byte> out);
  /// Vector-unit read: bypasses the scalar cache, always fresh.
  void cpu_read_uncached(std::uint64_t addr, std::span<std::byte> out) const;
  /// Invalidate the scalar cache. Returns the modeled cost so callers can
  /// charge it as virtual time (0 on coherent domains).
  sim::Time fence();

  // ----- NIC-side access (remote RMA lands here) --------------------------

  void nic_write(std::uint64_t addr, std::span<const std::byte> data);
  void nic_read(std::uint64_t addr, std::span<std::byte> out) const;

  // ----- statistics -------------------------------------------------------

  std::uint64_t fence_count() const { return fence_count_; }
  std::uint64_t cached_lines() const { return cache_.size(); }
  std::uint64_t nic_writes() const { return nic_writes_; }

 private:
  void check_range(std::uint64_t addr, std::size_t len) const;
  bool noncoherent() const {
    return cfg_.coherence == Coherence::noncoherent_writethrough;
  }

  DomainConfig cfg_;
  std::byte* arena_ = nullptr;  // cfg_.size bytes, lazily zeroed pages
  // Scalar cache: line index -> copy of the line at the time it was loaded
  // or last written by this CPU.
  std::unordered_map<std::uint64_t, std::vector<std::byte>> cache_;
  // Allocator: free list keyed by address -> length, plus per-block sizes.
  std::map<std::uint64_t, std::size_t> free_blocks_;
  std::unordered_map<std::uint64_t, std::size_t> allocated_;
  std::size_t in_use_ = 0;
  std::uint64_t fence_count_ = 0;
  std::uint64_t nic_writes_ = 0;
};

}  // namespace m3rma::memsim
