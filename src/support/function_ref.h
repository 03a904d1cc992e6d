// Non-owning reference to a callable: the parameter type for callbacks a
// function only calls before it returns. Unlike std::function it never
// copies the callable, so passing a lambda with several captures costs no
// heap allocation. The referenced callable must outlive the FunctionRef.
#ifndef CDS_SUPPORT_FUNCTION_REF_H
#define CDS_SUPPORT_FUNCTION_REF_H

#include <memory>
#include <type_traits>
#include <utility>

namespace cds::support {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): by design
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* o, Args... a) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(o))(
              std::forward<Args>(a)...);
        }) {}

  R operator()(Args... a) const { return call_(obj_, std::forward<Args>(a)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace cds::support

#endif  // CDS_SUPPORT_FUNCTION_REF_H
