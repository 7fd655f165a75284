// Move-only callable wrapper with inline small-object storage.
//
// The event scheduler runs tens of millions of callbacks per simulated
// hour; std::function's copyability constraint forces most simulator
// lambdas (which capture `this` plus a couple of words) onto the heap.
// InlineFunction stores any callable up to InlineBytes directly inside
// the wrapper — no allocation on the schedule hot path — and falls back
// to the heap only for oversized captures (e.g. a BLE advertising event
// that carries its payload from channel to channel).
// Move-only by design: event handlers are consumed exactly once.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace wile {

template <typename Signature, std::size_t InlineBytes = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  /// Construct a callable directly in place (after destroying any held
  /// one) — the scheduler's hot path files handlers into slab slots
  /// without a single intermediate move.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

 private:
  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (storage()) D(std::forward<F>(f));
      invoke_ = [](void* s, Args... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(std::forward<Args>(args)...);
      };
      if constexpr (!trivial_inline<D>()) {
        // Trivially copyable callables (the common case: captures of
        // `this` plus a few words) leave manage_ null — moves are a raw
        // memcpy and destruction is free, with no indirect call.
        manage_ = [](void* dst, void* src) {
          D* obj = std::launder(reinterpret_cast<D*>(src));
          if (dst != nullptr) ::new (dst) D(std::move(*obj));
          obj->~D();
        };
      }
    } else {
      // Oversized capture: one owning pointer lives inline instead.
      ::new (storage()) D*(new D(std::forward<F>(f)));
      invoke_ = [](void* s, Args... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(s)))(std::forward<Args>(args)...);
      };
      manage_ = [](void* dst, void* src) {
        D** slot = std::launder(reinterpret_cast<D**>(src));
        if (dst != nullptr) {
          ::new (dst) D*(*slot);  // ownership transfers with the pointer
        } else {
          delete *slot;
        }
      };
    }
  }

 public:
  InlineFunction(InlineFunction&& other) noexcept { adopt(std::move(other)); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      adopt(std::move(other));
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) { return invoke_(storage(), std::forward<Args>(args)...); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void reset() {
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) manage_(nullptr, storage());
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  /// Whether a callable of type D avoids the heap (for tests).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= InlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  /// Whether a callable of type D additionally takes the zero-overhead
  /// move path (memcpy, no manage function).
  template <typename D>
  static constexpr bool trivial_inline() {
    return fits_inline<D>() && std::is_trivially_copyable_v<D> &&
           std::is_trivially_destructible_v<D>;
  }

 private:
  void adopt(InlineFunction&& other) noexcept {
    if (other.invoke_ != nullptr) {
      if (other.manage_ == nullptr) {
        std::memcpy(buf_, other.buf_, InlineBytes);
      } else {
        other.manage_(storage(), other.storage());
      }
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  void* storage() { return static_cast<void*>(buf_); }

  using InvokeFn = R (*)(void*, Args...);
  /// manage(dst, src): move src's callable into dst and destroy src's;
  /// with dst == nullptr, just destroy.
  using ManageFn = void (*)(void*, void*);

  alignas(std::max_align_t) std::byte buf_[InlineBytes];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace wile
