// Move-only type-erased callable with inline storage.
//
// InlineFunction<void(Args...), N> is built implicitly from any callable,
// like std::function, but it never copies. A callable of at most N bytes
// whose move constructor cannot throw lives in the object's own buffer; a
// larger one falls back to a single heap allocation. Sizing N to the
// closures a hot path creates (the simulator's event and connect
// callbacks) makes storing and invoking them allocation-free.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace malnet::util {

template <typename Signature, std::size_t N>
class InlineFunction;

template <typename... Args, std::size_t N>
class InlineFunction<void(Args...), N> {
  static_assert(N >= sizeof(void*), "InlineFunction: buffer must hold a pointer");

 public:
  /// True when a callable of type F is stored in the inline buffer.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= N && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() noexcept = default;

  // Implicit, like std::function's converting constructor.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_v<D&, Args...>>>
  InlineFunction(F&& f) {
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()(Args... args) { ops_->invoke(buf_, std::forward<Args>(args)...); }

 private:
  struct Ops {
    void (*invoke)(void* self, Args&&... args);
    /// Move-constructs the callable at `dst` from the one at `src`, then
    /// destroys the one at `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self, Args&&... args) {
        std::invoke(*static_cast<D*>(self), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* from = static_cast<D*>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); }};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) {
        std::invoke(**static_cast<D**>(self), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* self) noexcept { delete *static_cast<D**>(self); }};

  void take(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[N];
  const Ops* ops_ = nullptr;
};

}  // namespace malnet::util
