// InlineFunction: a std::function<void()> replacement that is built, invoked
// and destroyed in place.
//
// The simulator schedules millions of events per run. EventQueue constructs
// each scheduled closure directly in its event slot, runs it there and
// destroys it there, so a closure is never relocated after the Schedule()
// call site builds it; hence the type is neither copyable nor movable.
// std::function's libstdc++ small-buffer holds 16 bytes (two pointers), less
// than the receiver's ACK closure (a sender handle, sequence number, send
// time, size and CE mark: 32 bytes), and would cost a malloc/free pair per
// event on the hottest path in the repo. Every simulator closure captures a
// few pointers and integers, so a 48-byte inline buffer holds them all;
// larger callables transparently fall back to the heap.

#ifndef SRC_UTIL_INLINE_FUNCTION_H_
#define SRC_UTIL_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace astraea {

template <size_t kInlineBytes = 48>
class InlineFunction {
 public:
  InlineFunction() = default;

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  // Builds `fn` in this object's storage, destroying any callable held before.
  template <typename F>
  void Emplace(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>, "InlineFunction holds void() callables");
    Reset();
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      vt_ = &InlineOps<D>::vtable;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(fn));
      vt_ = &HeapOps<D>::vtable;
    }
  }

  void operator()() { vt_->invoke(buf_); }

  // Destroys the held callable, if any.
  void Reset() {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) {
        vt_->destroy(buf_);
      }
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*destroy)(void*);  // null when there is nothing to destroy
  };

  template <typename D>
  struct InlineOps {
    static void Invoke(void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); }
    static void Destroy(void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); }
    static constexpr VTable vtable{&Invoke,
                                   std::is_trivially_destructible_v<D> ? nullptr : &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* Ptr(void* p) { return *reinterpret_cast<D**>(p); }
    static void Invoke(void* p) { (*Ptr(p))(); }
    static void Destroy(void* p) { delete Ptr(p); }
    static constexpr VTable vtable{&Invoke, &Destroy};
  };

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace astraea

#endif  // SRC_UTIL_INLINE_FUNCTION_H_
