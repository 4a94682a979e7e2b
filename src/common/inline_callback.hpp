// Small-buffer-optimized callable for the event kernel's hot path.
//
// std::function heap-allocates any capture larger than its tiny internal
// buffer (16 bytes on libstdc++), which puts a malloc/free pair on the
// schedule/fire path of most simulator events (device completions capture a
// response packet plus a nested callback; coalescer events capture whole
// request batches by pointer). InlineCallback stores captures up to
// kInlineBytes directly inside the object, so scheduling an event never
// allocates; oversized or over-aligned captures fall back to a single heap
// cell and keep working.  Dispatch goes through one per-type operations
// table (a single static struct per callable type) instead of separate
// function pointers, keeping the object at 56 bytes, so that the event
// kernel's node (this plus one list link) is exactly one 64-byte cache line.
//
// The object never moves: the kernel constructs a callable in place with
// emplace(), runs it where it lies and destroys it with reset(), so there is
// no relocate step on the fire path.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hmcc {

class InlineCallback {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  /// Sized for the simulator's largest hot callback: a `this` pointer plus
  /// a small struct (e.g. an HMC response header) or a moved-in vector.
  static constexpr std::size_t kInlineBytes = 48;

  constexpr InlineCallback() noexcept = default;
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  /// Construct @p fn in place; the object must be empty.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& fn) {
    static_assert(std::is_invocable_r_v<void, D&>,
                  "callback must be callable with no arguments");
    assert(ops_ == nullptr && "emplace into a live callback");
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &inline_ops<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &heap_ops<D>;
    }
  }

  void operator()() { ops_->invoke(storage_); }

  /// Destroy the stored callable, if any; the object is empty afterwards.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// True when a callable of type F would be stored without allocating.
  template <typename F>
  [[nodiscard]] static constexpr bool fits_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); },
  };

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<D**>(p)); },
  };

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char storage_[kInlineBytes];
};

static_assert(sizeof(InlineCallback) == 56);

}  // namespace hmcc
