#include "simtime/fiber.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <system_error>
#include <utility>

#include "common/diagnostics.hpp"

// Fiber::EhState mirrors the thread's abi::__cxa_eh_globals, which is
// opaque in <cxxabi.h>. Its layout is pinned by the Itanium C++ ABI on these
// targets (ARM EHABI, for one, appends a field).
#if !(defined(__x86_64__) || defined(__aarch64__))
#error "Fiber: __cxa_eh_globals layout is only known for x86-64 and aarch64"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define M3RMA_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define M3RMA_FIBER_ASAN 1
#endif
#endif

#ifdef M3RMA_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace m3rma::sim {

namespace {

std::size_t guard_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// AddressSanitizer must be told which stack is active, or it reports the
// frames of the stack it does not know about as overflows.
void start_switch([[maybe_unused]] void** fake_stack_save,
                  [[maybe_unused]] const void* bottom,
                  [[maybe_unused]] std::size_t size) {
#ifdef M3RMA_FIBER_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

void finish_switch([[maybe_unused]] void* fake_stack_save,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#ifdef M3RMA_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

}  // namespace

Fiber::Fiber(std::function<void()> body) : body_(std::move(body)) {
  const std::size_t len = guard_size() + kStackSize;
  void* m = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  if (m == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "fiber stack mmap");
  }
  map_ = static_cast<std::byte*>(m);
  // Stacks grow down: the lowest page traps an overflow.
  if (mprotect(map_, guard_size(), PROT_NONE) != 0) {
    const int err = errno;
    munmap(map_, len);
    throw std::system_error(err, std::generic_category(),
                            "fiber guard page mprotect");
  }
  stack_ = map_ + guard_size();
  getcontext(&self_);
  self_.uc_stack.ss_sp = stack_;
  self_.uc_stack.ss_size = kStackSize;
  self_.uc_link = nullptr;
  // makecontext passes int-sized arguments only: split the pointer.
  const auto p = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&self_, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
              static_cast<unsigned int>(p >> 32),
              static_cast<unsigned int>(p));
}

Fiber::~Fiber() {
#ifdef M3RMA_FIBER_ASAN
  // Frames that were live on this stack leave poisoned shadow behind; clear
  // it so a later mapping at the same address starts clean.
  __asan_unpoison_memory_region(stack_, kStackSize);
#endif
  munmap(map_, guard_size() + kStackSize);
}

void Fiber::entry(unsigned int hi, unsigned int lo) noexcept {
  auto* f = reinterpret_cast<Fiber*>((std::uintptr_t{hi} << 32) | lo);
  finish_switch(nullptr, &f->caller_bottom_, &f->caller_size_);
  f->body_();
  f->done_ = true;
  // Leaving for good: a null save slot lets ASan free this fiber's fake
  // stack.
  start_switch(nullptr, f->caller_bottom_, f->caller_size_);
  setcontext(&f->caller_);
}

void Fiber::resume() {
  M3RMA_ENSURE(!done_, "resume of a finished fiber");
  // Swap in this fiber's exception state for the duration of its slice.
  EhState& g = *reinterpret_cast<EhState*>(abi::__cxa_get_globals());
  const EhState outer = g;
  g = eh_;
  void* fake_stack = nullptr;
  start_switch(&fake_stack, stack_, kStackSize);
  swapcontext(&caller_, &self_);
  finish_switch(fake_stack, nullptr, nullptr);
  eh_ = g;
  g = outer;
}

void Fiber::suspend() {
  start_switch(&fake_stack_, caller_bottom_, caller_size_);
  swapcontext(&self_, &caller_);
  finish_switch(fake_stack_, &caller_bottom_, &caller_size_);
}

}  // namespace m3rma::sim
