//===-- interp/Value.h - Runtime values -------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime value representation for the MiniC++ interpreter. Pointers
/// reference Storage nodes (see interp/Memory.h); pointers into arrays
/// additionally carry the owning array and an index so that pointer
/// arithmetic and subscripting work.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_INTERP_VALUE_H
#define DMM_INTERP_VALUE_H

#include <climits>
#include <cstdint>
#include <type_traits>

namespace dmm {

class FieldDecl;
class FunctionDecl;
struct Storage;

/// A (possibly null) pointer to interpreter storage.
struct Pointer {
  Storage *Pointee = nullptr;
  /// When pointing into an array: the array storage and element index,
  /// enabling pointer arithmetic.
  Storage *Array = nullptr;
  long long Index = 0;

  bool isNull() const { return Pointee == nullptr; }

  friend bool operator==(const Pointer &A, const Pointer &B) {
    return A.Pointee == B.Pointee;
  }
};

/// A runtime value: a kind tag and a 24-byte payload that holds only
/// the member the kind names. Value() zeroes the whole payload.
///
/// The accessors read a kind without the asked-for member as if that
/// member were zero: asInt/asDouble read a pointer kind as 0, asBool
/// reads a member pointer as false (a data or function pointer tests
/// itself), and asPtr/asFn/asMember read any other kind as null. Code
/// that reads a payload member directly must have checked Kind first.
struct Value {
  enum class VK {
    Unit, ///< No value (void).
    Int,
    Double,
    Bool,
    Char,
    Ptr,
    FnPtr,
    MemberPtr,
  };

  VK Kind = VK::Unit;
  union {
    unsigned long long Raw[3]; ///< The whole payload, for zeroing.
    long long IntVal;          ///< Int, Bool, Char.
    double DoubleVal;          ///< Double.
    Pointer Ptr;               ///< Ptr.
    const FunctionDecl *Fn;    ///< FnPtr.
    const FieldDecl *Member;   ///< MemberPtr.
  };

  Value() : Raw{0, 0, 0} {}

  static Value unit() { return Value(); }
  static Value ofInt(long long V) {
    Value R;
    R.Kind = VK::Int;
    R.IntVal = V;
    return R;
  }
  static Value ofDouble(double V) {
    Value R;
    R.Kind = VK::Double;
    R.DoubleVal = V;
    return R;
  }
  static Value ofBool(bool V) {
    Value R;
    R.Kind = VK::Bool;
    R.IntVal = V;
    return R;
  }
  static Value ofChar(char V) {
    Value R;
    R.Kind = VK::Char;
    R.IntVal = V;
    return R;
  }
  static Value ofPtr(Pointer P) {
    Value R;
    R.Kind = VK::Ptr;
    R.Ptr = P;
    return R;
  }
  static Value nullPtr() { return ofPtr(Pointer()); }
  static Value ofFn(const FunctionDecl *F) {
    Value R;
    R.Kind = VK::FnPtr;
    R.Fn = F;
    return R;
  }
  static Value ofMemberPtr(const FieldDecl *F) {
    Value R;
    R.Kind = VK::MemberPtr;
    R.Member = F;
    return R;
  }

  /// Numeric coercions (lenient, mirroring Sema's implicit conversions).
  /// Unit, Int, Double, Bool and Char precede the pointer kinds; Unit's
  /// payload is zero, so it reads as 0 through IntVal.
  long long asInt() const {
    if (Kind == VK::Double)
      return static_cast<long long>(DoubleVal);
    return Kind <= VK::Char ? IntVal : 0;
  }
  double asDouble() const {
    if (Kind == VK::Double)
      return DoubleVal;
    return Kind <= VK::Char ? static_cast<double>(IntVal) : 0.0;
  }
  bool asBool() const {
    if (Kind <= VK::Char)
      return Kind == VK::Double ? DoubleVal != 0.0 : IntVal != 0;
    if (Kind == VK::Ptr)
      return !Ptr.isNull();
    return Kind == VK::FnPtr && Fn != nullptr;
  }
  Pointer asPtr() const { return Kind == VK::Ptr ? Ptr : Pointer(); }
  const FunctionDecl *asFn() const {
    return Kind == VK::FnPtr ? Fn : nullptr;
  }
  const FieldDecl *asMember() const {
    return Kind == VK::MemberPtr ? Member : nullptr;
  }
};

static_assert(sizeof(Value) == 32, "Value is a tag and a 24-byte payload");
static_assert(std::is_trivially_copyable_v<Value>,
              "registers and Storage payloads are copied as bytes");

/// \name Guest integer division (shared by both engines)
/// Callers reject a zero divisor first. LLONG_MIN / -1 does not fit in
/// a long long (the host traps on it), so callers report it as a guest
/// runtime error; LLONG_MIN % -1 is 0, like every remainder by -1.
/// @{
inline bool intDivOverflows(long long A, long long B) {
  return B == -1 && A == LLONG_MIN;
}
inline long long intRem(long long A, long long B) {
  return B == -1 ? 0 : A % B;
}
/// @}

/// \name Guest integer + - * and negation (shared by both engines)
/// Guest integers wrap in two's complement: INT64_MAX + 1 is INT64_MIN.
/// The operation runs on unsigned values, where wrapping is defined,
/// and converts back, which C++20 defines as modular; a signed host
/// overflow would be undefined behaviour.
/// @{
inline long long intAdd(long long A, long long B) {
  return static_cast<long long>(static_cast<unsigned long long>(A) +
                                static_cast<unsigned long long>(B));
}
inline long long intSub(long long A, long long B) {
  return static_cast<long long>(static_cast<unsigned long long>(A) -
                                static_cast<unsigned long long>(B));
}
inline long long intMul(long long A, long long B) {
  return static_cast<long long>(static_cast<unsigned long long>(A) *
                                static_cast<unsigned long long>(B));
}
inline long long intNeg(long long A) { return intSub(0, A); }
/// @}

} // namespace dmm

#endif // DMM_INTERP_VALUE_H
