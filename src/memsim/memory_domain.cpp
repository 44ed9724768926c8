#include "memsim/memory_domain.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace m3rma::memsim {

namespace {
constexpr std::uint64_t kNullGuard = 64;  // keep address 0 unallocatable
}

MemoryDomain::MemoryDomain(DomainConfig cfg) : cfg_(cfg) {
  M3RMA_REQUIRE(cfg_.size >= 2 * kNullGuard, "domain too small");
  M3RMA_REQUIRE(cfg_.addr_bits >= 16 && cfg_.addr_bits <= 64,
                "addr_bits out of range");
  if (cfg_.addr_bits < 64) {
    M3RMA_REQUIRE(cfg_.size <= (std::uint64_t{1} << cfg_.addr_bits),
                  "domain size exceeds the node's address space");
  }
  free_blocks_.emplace(kNullGuard, cfg_.size - kNullGuard);
  void* m = mmap(nullptr, cfg_.size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (m == MAP_FAILED) throw std::bad_alloc();
  arena_ = static_cast<std::byte*>(m);
}

MemoryDomain::~MemoryDomain() { munmap(arena_, cfg_.size); }

std::uint64_t MemoryDomain::alloc(std::size_t bytes, std::size_t align) {
  M3RMA_REQUIRE(bytes > 0, "alloc of zero bytes");
  M3RMA_REQUIRE(align > 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    const std::uint64_t start = it->first;
    const std::size_t len = it->second;
    const std::uint64_t aligned = (start + align - 1) & ~(align - 1);
    const std::uint64_t pad = aligned - start;
    if (pad + bytes > len) continue;
    // Carve [aligned, aligned+bytes) out of this block.
    free_blocks_.erase(it);
    if (pad > 0) free_blocks_.emplace(start, pad);
    if (pad + bytes < len) {
      free_blocks_.emplace(aligned + bytes, len - pad - bytes);
    }
    allocated_.emplace(aligned, bytes);
    in_use_ += bytes;
    return aligned;
  }
  throw UsageError("memory domain out of space");
}

void MemoryDomain::dealloc(std::uint64_t addr) {
  auto it = allocated_.find(addr);
  M3RMA_REQUIRE(it != allocated_.end(), "dealloc of unallocated address");
  std::size_t len = it->second;
  in_use_ -= len;
  allocated_.erase(it);
  // Insert and coalesce with neighbors.
  auto [pos, inserted] = free_blocks_.emplace(addr, len);
  M3RMA_ENSURE(inserted, "free list corruption");
  if (pos != free_blocks_.begin()) {
    auto prev = std::prev(pos);
    if (prev->first + prev->second == pos->first) {
      prev->second += pos->second;
      free_blocks_.erase(pos);
      pos = prev;
    }
  }
  auto next = std::next(pos);
  if (next != free_blocks_.end() &&
      pos->first + pos->second == next->first) {
    pos->second += next->second;
    free_blocks_.erase(next);
  }
}

std::byte* MemoryDomain::raw(std::uint64_t addr) {
  check_range(addr, 1);
  return arena_ + addr;
}

const std::byte* MemoryDomain::raw(std::uint64_t addr) const {
  check_range(addr, 1);
  return arena_ + addr;
}

bool MemoryDomain::contains(std::uint64_t addr, std::size_t len) const {
  return addr < cfg_.size && len <= cfg_.size - addr;
}

void MemoryDomain::check_range(std::uint64_t addr, std::size_t len) const {
  M3RMA_REQUIRE(contains(addr, len), "memory access out of domain bounds");
}

void MemoryDomain::cpu_write(std::uint64_t addr,
                             std::span<const std::byte> data) {
  check_range(addr, data.size());
  // Write-through: memory is always updated.
  std::memcpy(arena_ + addr, data.data(), data.size());
  if (!noncoherent()) return;
  // Keep this CPU's cached copies consistent with its own writes.
  const std::uint64_t first = addr / kCacheLine;
  const std::uint64_t last = (addr + data.size() - 1) / kCacheLine;
  for (std::uint64_t ln = first; ln <= last; ++ln) {
    auto it = cache_.find(ln);
    if (it == cache_.end()) continue;
    const std::uint64_t line_base = ln * kCacheLine;
    const std::uint64_t lo = std::max<std::uint64_t>(line_base, addr);
    const std::uint64_t hi =
        std::min<std::uint64_t>(line_base + kCacheLine, addr + data.size());
    std::memcpy(it->second.data() + (lo - line_base),
                data.data() + (lo - addr), hi - lo);
  }
}

void MemoryDomain::cpu_read(std::uint64_t addr, std::span<std::byte> out) {
  check_range(addr, out.size());
  if (!noncoherent()) {
    std::memcpy(out.data(), arena_ + addr, out.size());
    return;
  }
  // Scalar path: serve each overlapping line from the cache, loading missing
  // lines from memory (which freezes them until the next fence).
  const std::uint64_t first = addr / kCacheLine;
  const std::uint64_t last = (addr + out.size() - 1) / kCacheLine;
  for (std::uint64_t ln = first; ln <= last; ++ln) {
    const std::uint64_t line_base = ln * kCacheLine;
    auto it = cache_.find(ln);
    if (it == cache_.end()) {
      const std::size_t avail =
          std::min<std::uint64_t>(kCacheLine, cfg_.size - line_base);
      std::vector<std::byte> copy(avail);
      std::memcpy(copy.data(), arena_ + line_base, avail);
      it = cache_.emplace(ln, std::move(copy)).first;
    }
    const std::uint64_t lo = std::max<std::uint64_t>(line_base, addr);
    const std::uint64_t hi =
        std::min<std::uint64_t>(line_base + it->second.size(),
                                addr + out.size());
    if (lo < hi) {
      std::memcpy(out.data() + (lo - addr),
                  it->second.data() + (lo - line_base), hi - lo);
    }
  }
}

void MemoryDomain::cpu_read_uncached(std::uint64_t addr,
                                     std::span<std::byte> out) const {
  check_range(addr, out.size());
  std::memcpy(out.data(), arena_ + addr, out.size());
}

sim::Time MemoryDomain::fence() {
  ++fence_count_;
  if (!noncoherent()) return 0;
  cache_.clear();
  return cfg_.fence_cost_ns;
}

void MemoryDomain::nic_write(std::uint64_t addr,
                             std::span<const std::byte> data) {
  check_range(addr, data.size());
  ++nic_writes_;
  // Remote writes land in memory without invalidating the scalar cache —
  // the essence of the non-coherent challenge in §III-B2.
  std::memcpy(arena_ + addr, data.data(), data.size());
}

void MemoryDomain::nic_read(std::uint64_t addr,
                            std::span<std::byte> out) const {
  check_range(addr, out.size());
  std::memcpy(out.data(), arena_ + addr, out.size());
}

}  // namespace m3rma::memsim
