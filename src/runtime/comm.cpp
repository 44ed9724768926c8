#include "runtime/comm.hpp"

#include <algorithm>

#include "common/diagnostics.hpp"
#include "runtime/world.hpp"

namespace m3rma::runtime {

namespace {
// Wire tag layout: [context:23][coll:1][payload:39].
constexpr int kPayloadBits = 39;
constexpr std::int64_t kPayloadMask = (std::int64_t{1} << kPayloadBits) - 1;
constexpr std::int64_t kCollBit = std::int64_t{1} << kPayloadBits;
}  // namespace

Comm::Comm(Rank& rank, std::uint32_t context_id, std::vector<int> members)
    : rank_(&rank), context_id_(context_id), members_(std::move(members)) {
  M3RMA_REQUIRE(!members_.empty(), "communicator needs at least one member");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == rank_->id()) my_index_ = static_cast<int>(i);
  }
  M3RMA_REQUIRE(my_index_ >= 0, "calling rank is not in the communicator");
}

int Comm::to_world(int r) const {
  M3RMA_REQUIRE(r >= 0 && r < size(), "rank out of communicator range");
  return members_[static_cast<std::size_t>(r)];
}

int Comm::from_world(int world_rank) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == world_rank) return static_cast<int>(i);
  }
  throw Panic("message from a rank outside this communicator");
}

std::int64_t Comm::wire_tag(std::int64_t user_tag) const {
  M3RMA_REQUIRE(user_tag >= 0 && user_tag < kCollBit,
                "user tag out of range");
  return (static_cast<std::int64_t>(context_id_) << (kPayloadBits + 1)) |
         user_tag;
}

std::int64_t Comm::coll_tag(int phase) {
  // coll_seq_ is advanced once per collective by the caller; phase
  // distinguishes message rounds inside one collective.
  const std::int64_t payload =
      ((static_cast<std::int64_t>(coll_seq_) << 8) |
       static_cast<std::int64_t>(phase)) &
      kPayloadMask;
  return (static_cast<std::int64_t>(context_id_) << (kPayloadBits + 1)) |
         kCollBit | payload;
}

// --------------------------------------------------------- point-to-point

void Comm::send(int dst, std::int64_t tag, std::span<const std::byte> data) {
  rank_->p2p().send(rank_->ctx(), to_world(dst), wire_tag(tag), data);
}

Message Comm::recv(int src, std::int64_t tag) {
  const int wsrc = src == kAnySource ? kAnySource : to_world(src);
  const std::int64_t wtag = tag == kAnyTag ? kAnyTag : wire_tag(tag);
  Message m = rank_->p2p().recv(rank_->ctx(), wsrc, wtag);
  m.src = from_world(m.src);
  m.tag &= kPayloadMask;
  return m;
}

// ------------------------------------------------------------ collectives

bool Comm::member_alive(int r) const {
  return rank_->world().alive(to_world(r));
}

bool Comm::all_alive() const {
  for (int m : members_) {
    if (!rank_->world().alive(m)) return false;
  }
  return true;
}

std::optional<Message> Comm::recv_from_live(int r, std::int64_t wtag) {
  if (!member_alive(r)) return std::nullopt;
  try {
    return rank_->p2p().recv(rank_->ctx(), to_world(r), wtag);
  } catch (const RankFailedError&) {
    return std::nullopt;  // r died while we waited
  }
}

void Comm::barrier() {
  ++coll_seq_;
  const int n = size();
  const int me = rank();
  for (int k = 1; k < n; k <<= 1) {
    const int to = (me + k) % n;
    const int from = (me - k % n + n) % n;
    if (member_alive(to)) {
      rank_->p2p().send(rank_->ctx(), to_world(to), coll_tag(0), {});
    }
    (void)recv_from_live(from, coll_tag(0));
  }
}

void Comm::bcast(std::vector<std::byte>& data, int root) {
  ++coll_seq_;
  const int n = size();
  if (n == 1) return;
  const int vr = (rank() - root + n) % n;
  // Binomial tree: receive from the parent, then forward down.
  int mask = 1;
  while (mask < n) {
    if ((vr & mask) != 0) {
      const int parent = ((vr - mask) + root) % n;
      // A dead parent means this subtree can never learn the payload; keep
      // the caller's buffer and carry on.
      if (auto m = recv_from_live(parent, coll_tag(1))) {
        data = std::move(m->data);
      }
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const int child = ((vr + mask) + root) % n;
      if (member_alive(child)) {
        rank_->p2p().send(rank_->ctx(), to_world(child), coll_tag(1), data);
      }
    }
    mask >>= 1;
  }
}

std::vector<std::vector<std::byte>> Comm::gather(
    std::span<const std::byte> mine, int root) {
  ++coll_seq_;
  const int n = size();
  std::vector<std::vector<std::byte>> out;
  if (rank() == root) {
    out.resize(static_cast<std::size_t>(n));
    out[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
    std::vector<int> pending;
    for (int i = 0; i < n; ++i) {
      if (i != root) pending.push_back(to_world(i));
    }
    while (!pending.empty()) {
      auto m = rank_->p2p().recv_any_live(rank_->ctx(), coll_tag(2), pending);
      if (!m) break;  // every remaining contributor died; slots stay empty
      std::erase(pending, m->src);
      out[static_cast<std::size_t>(from_world(m->src))] = std::move(m->data);
    }
  } else if (member_alive(root)) {
    rank_->p2p().send(rank_->ctx(), to_world(root), coll_tag(2), mine);
  }
  return out;
}

std::vector<std::vector<std::byte>> Comm::allgather(
    std::span<const std::byte> mine) {
  auto parts = gather(mine, 0);
  // Serialize [count][len,bytes]... and broadcast.
  std::vector<std::byte> blob;
  if (rank() == 0) {
    for (const auto& part : parts) {
      const std::uint64_t len = part.size();
      const auto* lp = reinterpret_cast<const std::byte*>(&len);
      blob.insert(blob.end(), lp, lp + sizeof(len));
      blob.insert(blob.end(), part.begin(), part.end());
    }
  }
  bcast(blob, 0);
  if (rank() != 0) {
    parts.clear();
    std::size_t off = 0;
    while (off < blob.size()) {
      std::uint64_t len = 0;
      std::memcpy(&len, blob.data() + off, sizeof(len));
      off += sizeof(len);
      parts.emplace_back(blob.begin() + static_cast<std::ptrdiff_t>(off),
                         blob.begin() + static_cast<std::ptrdiff_t>(off + len));
      off += len;
    }
  }
  if (parts.size() != static_cast<std::size_t>(size())) {
    // Only tolerable when the shortfall is explained by failed members.
    M3RMA_ENSURE(!all_alive(), "allgather part count mismatch");
    parts.resize(static_cast<std::size_t>(size()));
  }
  return parts;
}

std::uint64_t Comm::allreduce_sum(std::uint64_t v) {
  std::uint64_t acc = 0;
  for (const std::uint64_t x : allgather_value(v)) acc += x;
  return acc;
}

std::uint64_t Comm::reduce_sum(std::uint64_t v, int root) {
  ++coll_seq_;
  const int n = size();
  if (rank() == root) {
    std::uint64_t acc = v;
    std::vector<int> pending;
    for (int i = 0; i < n; ++i) {
      if (i != root) pending.push_back(to_world(i));
    }
    while (!pending.empty()) {
      auto m = rank_->p2p().recv_any_live(rank_->ctx(), coll_tag(3), pending);
      if (!m) break;  // dead members contribute nothing
      std::erase(pending, m->src);
      std::uint64_t x = 0;
      M3RMA_ENSURE(m->data.size() == 8, "reduce payload size");
      std::memcpy(&x, m->data.data(), 8);
      acc += x;
    }
    return acc;
  }
  if (member_alive(root)) {
    rank_->p2p().send(rank_->ctx(), to_world(root), coll_tag(3),
                      std::span(reinterpret_cast<const std::byte*>(&v), 8));
  }
  return 0;
}

// ------------------------------------------------------------------ split

std::unique_ptr<Comm> Comm::split(int color, int key) {
  struct Entry {
    int color;
    int key;
    int world_rank;
  };
  auto entries = allgather_value(Entry{color, key, rank_->id()});
  // Leader allocates one id per distinct non-negative color, broadcasts the
  // (color -> id) table as parallel arrays.
  std::vector<int> colors;
  for (const auto& e : entries) {
    if (e.color >= 0 &&
        std::find(colors.begin(), colors.end(), e.color) == colors.end()) {
      colors.push_back(e.color);
    }
  }
  std::sort(colors.begin(), colors.end());
  std::vector<std::byte> blob(colors.size() * sizeof(std::uint32_t));
  if (rank() == 0) {
    for (std::size_t i = 0; i < colors.size(); ++i) {
      const std::uint32_t id = rank_->world().alloc_context_id();
      std::memcpy(blob.data() + i * sizeof(std::uint32_t), &id, sizeof(id));
    }
  }
  bcast(blob, 0);
  if (color < 0) return nullptr;

  std::vector<Entry> group;
  for (const auto& e : entries) {
    if (e.color == color) group.push_back(e);
  }
  std::stable_sort(group.begin(), group.end(), [](const Entry& a,
                                                  const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.world_rank < b.world_rank;
  });
  std::vector<int> members;
  for (const auto& e : group) members.push_back(e.world_rank);

  const auto idx = static_cast<std::size_t>(
      std::find(colors.begin(), colors.end(), color) - colors.begin());
  std::uint32_t id = 0;
  std::memcpy(&id, blob.data() + idx * sizeof(std::uint32_t), sizeof(id));
  return std::make_unique<Comm>(*rank_, id, std::move(members));
}

}  // namespace m3rma::runtime
