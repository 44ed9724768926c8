#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "memsim/memory_domain.hpp"

namespace m3rma::memsim {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

std::vector<std::byte> read_cpu(MemoryDomain& d, std::uint64_t addr,
                                std::size_t n) {
  std::vector<std::byte> out(n);
  d.cpu_read(addr, out);
  return out;
}

DomainConfig coherent_cfg() {
  DomainConfig c;
  c.size = 1 << 20;
  return c;
}

DomainConfig sx_cfg() {
  DomainConfig c;
  c.size = 1 << 20;
  c.coherence = Coherence::noncoherent_writethrough;
  return c;
}

// -------------------------------------------------------------- allocator

TEST(Allocator, NeverReturnsNull) {
  MemoryDomain d(coherent_cfg());
  for (int i = 0; i < 100; ++i) EXPECT_NE(d.alloc(16), 0u);
}

TEST(Allocator, RespectsAlignment) {
  MemoryDomain d(coherent_cfg());
  for (std::size_t align : {1, 2, 4, 8, 64, 4096}) {
    EXPECT_EQ(d.alloc(10, align) % align, 0u);
  }
}

TEST(Allocator, AllocationsDoNotOverlap) {
  MemoryDomain d(coherent_cfg());
  auto a = d.alloc(100);
  auto b = d.alloc(100);
  EXPECT_TRUE(a + 100 <= b || b + 100 <= a);
}

TEST(Allocator, DeallocAllowsReuse) {
  MemoryDomain d(coherent_cfg());
  const auto before = d.bytes_in_use();
  auto a = d.alloc(1000);
  d.dealloc(a);
  EXPECT_EQ(d.bytes_in_use(), before);
  // After freeing everything, a huge allocation must succeed (coalescing).
  auto b = d.alloc(500000);
  d.dealloc(b);
  auto c = d.alloc(900000);
  EXPECT_NE(c, 0u);
}

TEST(Allocator, CoalescesNeighbors) {
  MemoryDomain d(coherent_cfg());
  auto a = d.alloc(400000);
  auto b = d.alloc(400000);
  d.dealloc(a);
  d.dealloc(b);
  EXPECT_NE(d.alloc(800000), 0u);
}

TEST(Allocator, OutOfSpaceThrows) {
  DomainConfig c;
  c.size = 4096;
  MemoryDomain d(c);
  EXPECT_THROW(d.alloc(1 << 20), UsageError);
}

TEST(Allocator, DoubleFreeDetected) {
  MemoryDomain d(coherent_cfg());
  auto a = d.alloc(64);
  d.dealloc(a);
  EXPECT_THROW(d.dealloc(a), UsageError);
}

TEST(Allocator, ZeroByteAllocationRejected) {
  MemoryDomain d(coherent_cfg());
  EXPECT_THROW(d.alloc(0), UsageError);
}

class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorProperty, RandomAllocFreeNeverOverlapsAndCoalesces) {
  m3rma::SplitMix64 rng(GetParam() * 97 + 3);
  DomainConfig cfg;
  cfg.size = 1 << 18;
  MemoryDomain d(cfg);
  struct Block {
    std::uint64_t addr;
    std::size_t len;
  };
  std::vector<Block> live;
  for (int op = 0; op < 400; ++op) {
    if (live.empty() || rng.next_bool(0.6)) {
      const std::size_t len = 1 + rng.next_below(2000);
      std::uint64_t addr = 0;
      try {
        addr = d.alloc(len, 1ull << rng.next_below(7));
      } catch (const UsageError&) {
        continue;  // arena temporarily full: acceptable
      }
      for (const Block& b : live) {
        EXPECT_TRUE(addr + len <= b.addr || b.addr + b.len <= addr)
            << "allocation overlap";
      }
      live.push_back(Block{addr, len});
    } else {
      const std::size_t pick = rng.next_below(live.size());
      d.dealloc(live[pick].addr);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  for (const Block& b : live) d.dealloc(b.addr);
  EXPECT_EQ(d.bytes_in_use(), 0u);
  // After freeing everything the arena must have coalesced back to (nearly)
  // one block: a max-size allocation succeeds.
  EXPECT_NO_THROW(d.alloc((1 << 18) - 4096));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------ coherent accesses

TEST(CoherentDomain, CpuSeesNicWritesImmediately) {
  MemoryDomain d(coherent_cfg());
  auto addr = d.alloc(4);
  std::vector<std::byte> warm(4);
  d.cpu_read(addr, warm);  // would populate a cache if there were one
  auto data = bytes({1, 2, 3, 4});
  d.nic_write(addr, data);
  EXPECT_EQ(read_cpu(d, addr, 4), data);
}

TEST(CoherentDomain, FenceIsFreeNoOp) {
  MemoryDomain d(coherent_cfg());
  EXPECT_EQ(d.fence(), 0u);
  EXPECT_EQ(d.fence_count(), 1u);
}

TEST(CoherentDomain, NicReadSeesCpuWrites) {
  MemoryDomain d(coherent_cfg());
  auto addr = d.alloc(4);
  auto data = bytes({9, 8, 7, 6});
  d.cpu_write(addr, data);
  std::vector<std::byte> out(4);
  d.nic_read(addr, out);
  EXPECT_EQ(out, data);
}

TEST(CoherentDomain, RawPointerAliasesArena) {
  MemoryDomain d(coherent_cfg());
  auto addr = d.alloc(8);
  auto data = bytes({5, 5, 5, 5, 5, 5, 5, 5});
  d.cpu_write(addr, data);
  EXPECT_EQ(std::memcmp(d.raw(addr), data.data(), 8), 0);
}

TEST(CoherentDomain, FreshArenaReadsZeroToItsLastByte) {
  // The arena is zero-filled on first touch, also for a domain far larger
  // than anything the run will use; its last byte is in bounds.
  DomainConfig c;
  c.size = std::size_t{1} << 30;
  MemoryDomain d(c);
  for (std::uint64_t addr : {std::uint64_t{0}, c.size / 2, c.size - 8}) {
    std::vector<std::byte> out(8, std::byte{0xff});
    d.nic_read(addr, out);
    EXPECT_EQ(out, std::vector<std::byte>(8));
  }
  EXPECT_TRUE(d.contains(c.size - 1, 1));
  EXPECT_FALSE(d.contains(c.size, 1));
}

TEST(CoherentDomain, OutOfBoundsAccessRejected) {
  MemoryDomain d(coherent_cfg());
  std::vector<std::byte> buf(16);
  EXPECT_THROW(d.nic_write((1 << 20) - 8, buf), UsageError);
  EXPECT_THROW(d.cpu_read((1 << 20) - 8, buf), UsageError);
}

// ------------------------------------------- non-coherent (NEC SX-like)

TEST(NonCoherentDomain, ScalarReadGoesStaleAfterRemoteWrite) {
  MemoryDomain d(sx_cfg());
  auto addr = d.alloc(4);
  d.cpu_write(addr, bytes({1, 1, 1, 1}));
  // Load the line into the scalar cache.
  EXPECT_EQ(read_cpu(d, addr, 4), bytes({1, 1, 1, 1}));
  // Remote write bypasses the cache.
  d.nic_write(addr, bytes({2, 2, 2, 2}));
  // The scalar unit still sees the stale value: §III-B2's core hazard.
  EXPECT_EQ(read_cpu(d, addr, 4), bytes({1, 1, 1, 1}));
}

TEST(NonCoherentDomain, FenceMakesRemoteWriteVisible) {
  MemoryDomain d(sx_cfg());
  auto addr = d.alloc(4);
  (void)read_cpu(d, addr, 4);
  d.nic_write(addr, bytes({3, 3, 3, 3}));
  EXPECT_GT(d.fence(), 0u);  // fence has a cost on SX-like nodes
  EXPECT_EQ(read_cpu(d, addr, 4), bytes({3, 3, 3, 3}));
}

TEST(NonCoherentDomain, UncachedVectorReadAlwaysFresh) {
  MemoryDomain d(sx_cfg());
  auto addr = d.alloc(4);
  (void)read_cpu(d, addr, 4);
  d.nic_write(addr, bytes({4, 4, 4, 4}));
  std::vector<std::byte> out(4);
  d.cpu_read_uncached(addr, out);
  EXPECT_EQ(out, bytes({4, 4, 4, 4}));
}

TEST(NonCoherentDomain, OwnWritesAlwaysVisibleToSelf) {
  // Write-through: the writing CPU observes its own stores (the paper's
  // read/write "ordering" property for purely local access).
  MemoryDomain d(sx_cfg());
  auto addr = d.alloc(4);
  (void)read_cpu(d, addr, 4);  // cache the line
  d.cpu_write(addr, bytes({7, 7, 7, 7}));
  EXPECT_EQ(read_cpu(d, addr, 4), bytes({7, 7, 7, 7}));
  // And memory itself was updated (write-through, not write-back).
  std::vector<std::byte> out(4);
  d.nic_read(addr, out);
  EXPECT_EQ(out, bytes({7, 7, 7, 7}));
}

TEST(NonCoherentDomain, StalenessHasCacheLineGranularity) {
  MemoryDomain d(sx_cfg());
  auto addr = d.alloc(256, 64);
  d.cpu_write(addr, std::vector<std::byte>(256, std::byte{1}));
  // Cache only the first line.
  (void)read_cpu(d, addr, 8);
  d.nic_write(addr, std::vector<std::byte>(256, std::byte{2}));
  // First line stale, untouched lines fresh.
  EXPECT_EQ(read_cpu(d, addr, 1)[0], std::byte{1});
  EXPECT_EQ(read_cpu(d, addr + 128, 1)[0], std::byte{2});
}

TEST(NonCoherentDomain, FenceClearsAllCachedLines) {
  MemoryDomain d(sx_cfg());
  auto addr = d.alloc(1024, 64);
  (void)read_cpu(d, addr, 1024);
  EXPECT_GT(d.cached_lines(), 0u);
  d.fence();
  EXPECT_EQ(d.cached_lines(), 0u);
}

TEST(NonCoherentDomain, NicWriteCountTracked) {
  MemoryDomain d(sx_cfg());
  auto addr = d.alloc(16);
  d.nic_write(addr, bytes({1}));
  d.nic_write(addr, bytes({2}));
  EXPECT_EQ(d.nic_writes(), 2u);
}

// -------------------------------------------------------- address widths

TEST(DomainConfigCheck, NarrowAddressSpaceLimitsSize) {
  DomainConfig c;
  c.addr_bits = 16;
  c.size = 1 << 20;  // 1 MiB does not fit in 16-bit addressing
  EXPECT_THROW(MemoryDomain{c}, UsageError);
  c.size = 1 << 16;
  EXPECT_NO_THROW(MemoryDomain{c});
}

TEST(DomainConfigCheck, InvalidAddrBitsRejected) {
  DomainConfig c;
  c.addr_bits = 8;
  EXPECT_THROW(MemoryDomain{c}, UsageError);
}

}  // namespace
}  // namespace m3rma::memsim
