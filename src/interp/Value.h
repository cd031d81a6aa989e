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

/// A runtime value.
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
  long long IntVal = 0;
  double DoubleVal = 0.0;
  Pointer Ptr;
  const FunctionDecl *Fn = nullptr;
  const FieldDecl *Member = nullptr;

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
  long long asInt() const {
    return Kind == VK::Double ? static_cast<long long>(DoubleVal) : IntVal;
  }
  double asDouble() const {
    return Kind == VK::Double ? DoubleVal : static_cast<double>(IntVal);
  }
  bool asBool() const {
    if (Kind == VK::Ptr)
      return !Ptr.isNull();
    if (Kind == VK::FnPtr)
      return Fn != nullptr;
    if (Kind == VK::Double)
      return DoubleVal != 0.0;
    return IntVal != 0;
  }
};

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
