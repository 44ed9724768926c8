// Communicators: groups of ranks with an isolated tag space, point-to-point
// messaging and the collectives the RMA layers need.
//
// The strawman API (paper §IV) deliberately reuses "existing MPI concepts
// such as communicators for groups of processes"; every strawman call takes
// a Comm. Each rank owns its local Comm object; objects with the same
// context id form one communicator.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "runtime/p2p.hpp"

namespace m3rma::runtime {

class Rank;

class Comm {
 public:
  /// World communicator over all ranks; used by Rank::comm_world().
  Comm(Rank& rank, std::uint32_t context_id, std::vector<int> members);

  /// My rank within this communicator.
  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(members_.size()); }
  std::uint32_t context_id() const { return context_id_; }
  /// Translate a communicator rank to a world rank.
  int to_world(int r) const;
  const std::vector<int>& members() const { return members_; }

  /// Split by color/key, MPI_Comm_split semantics (collective). Returns the
  /// communicator containing this rank; color < 0 yields nullptr.
  /// split(0, rank()) duplicates: same group, fresh context id.
  std::unique_ptr<Comm> split(int color, int key);

  // ----- point-to-point (ranks are communicator-relative) -----------------

  void send(int dst, std::int64_t tag, std::span<const std::byte> data);
  Message recv(int src = kAnySource, std::int64_t tag = kAnyTag);

  template <class T>
  void send_value(int dst, std::int64_t tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag,
         std::span(reinterpret_cast<const std::byte*>(&v), sizeof(T)));
  }
  template <class T>
  T recv_value(int src, std::int64_t tag, int* from = nullptr) {
    Message m = recv(src, tag);
    M3RMA_ENSURE(m.data.size() == sizeof(T), "typed recv size mismatch");
    T v;
    std::memcpy(&v, m.data.data(), sizeof(T));
    if (from != nullptr) *from = from_world(m.src);
    return v;
  }

  // ----- collectives --------------------------------------------------------
  //
  // Fault semantics: with failed members, collectives keep their healthy
  // message schedule but skip edges to dead ranks, so they terminate instead
  // of hanging and a rank that entered before a death interoperates with one
  // that entered after. Degraded results are best-effort: gathered/reduced
  // slots of dead ranks are empty/zero, bcast payloads are lost for the
  // subtree behind a dead interior node, and a degraded barrier no longer
  // separates rounds. allgather_value/allreduce_sum/split stay strict and
  // panic on short results — rebuild the communicator after a failure if you
  // need them.

  void barrier();
  /// Broadcast `data` from root; non-roots receive into `data`.
  void bcast(std::vector<std::byte>& data, int root);
  /// Gather per-rank byte strings; result valid at root only.
  std::vector<std::vector<std::byte>> gather(std::span<const std::byte> mine,
                                             int root);
  std::vector<std::vector<std::byte>> allgather(
      std::span<const std::byte> mine);
  /// Sum of every rank's `v`, at every rank.
  std::uint64_t allreduce_sum(std::uint64_t v);
  /// Reduce to root (sum); non-roots receive 0.
  std::uint64_t reduce_sum(std::uint64_t v, int root);

  template <class T>
  std::vector<T> allgather_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = allgather(
        std::span(reinterpret_cast<const std::byte*>(&v), sizeof(T)));
    std::vector<T> out(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      M3RMA_ENSURE(raw[i].size() == sizeof(T), "allgather size mismatch");
      std::memcpy(&out[i], raw[i].data(), sizeof(T));
    }
    return out;
  }

  Rank& owner() { return *rank_; }

 private:
  int from_world(int world_rank) const;
  std::int64_t wire_tag(std::int64_t user_tag) const;
  std::int64_t coll_tag(int phase);
  bool member_alive(int r) const;
  bool all_alive() const;
  /// recv from `r` that degrades instead of hanging or throwing: returns
  /// nullopt if `r` is already dead or dies while we wait. Collectives keep
  /// their healthy message pattern and use this to skip dead partners, so
  /// ranks that entered a collective before and after a death still exchange
  /// compatible traffic.
  std::optional<Message> recv_from_live(int r, std::int64_t wtag);

  Rank* rank_;
  std::uint32_t context_id_;
  std::vector<int> members_;  // world ranks, sorted by comm rank
  int my_index_ = -1;
  std::uint64_t coll_seq_ = 0;
};

}  // namespace m3rma::runtime
