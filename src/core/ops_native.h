// Native (host-arithmetic) backend for SCK<T>.
//
// This is the "software implementation" leg of the paper's co-design flow:
// the overloaded operators execute directly on the host ALU. Nominal and
// check operations use the same instructions, so the backend is the
// software analogue of the paper's worst case (mono-processor: one unit
// performs the operation and its control) — except that here the host is
// assumed fault-free and the backend's purpose is functional behaviour and
// overhead measurement, not fault injection (use HwOps for that).
//
// All arithmetic is performed on the unsigned companion type so wrap-around
// is well-defined; the inverse-operation identities hold exactly in the
// 2^N ring, so checks never false-alarm on overflow (the paper handles
// overflow "separately").
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/assert.h"

namespace sck {

/// Role of an operation inside a checked operator. Native execution ignores
/// it; the hardware backend uses it to allocate functional units.
enum class OpRole : unsigned char { kNominal, kCheck };

template <typename T>
struct NativeOps {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                "SCK supports integral data types (the synthesizable subset)");
  using U = std::make_unsigned_t<T>;

  [[nodiscard]] static constexpr T add(T a, T b, OpRole = OpRole::kNominal) {
    return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
  }
  [[nodiscard]] static constexpr T sub(T a, T b, OpRole = OpRole::kNominal) {
    return static_cast<T>(static_cast<U>(a) - static_cast<U>(b));
  }
  [[nodiscard]] static constexpr T mul(T a, T b, OpRole = OpRole::kNominal) {
    return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
  }
  [[nodiscard]] static constexpr T neg(T a, OpRole = OpRole::kNominal) {
    return static_cast<T>(U{0} - static_cast<U>(a));
  }

  /// Truncating division with quotient and remainder; returns false (and
  /// zero outputs) when the operation is undefined (b == 0, or the
  /// min/-1 overflow for signed T).
  [[nodiscard]] static constexpr bool div(T a, T b, T& q, T& r,
                                          OpRole = OpRole::kNominal) {
    if (b == 0) {
      q = 0;
      r = 0;
      return false;
    }
    if constexpr (std::is_signed_v<T>) {
      if (a == std::numeric_limits<T>::min() && b == T{-1}) {
        q = 0;
        r = 0;
        return false;
      }
    }
    q = static_cast<T>(a / b);
    r = static_cast<T>(a % b);
    return true;
  }

  /// Addition that also reports the carry out of the top bit (needed by the
  /// residue check's wrap correction).
  [[nodiscard]] static constexpr T add_carry(T a, T b, bool& carry_out) {
    const U ua = static_cast<U>(a);
    const U sum = static_cast<U>(ua + static_cast<U>(b));
    carry_out = sum < ua;
    return static_cast<T>(sum);
  }

  /// Subtraction reporting the absence of a borrow (carry-out of the
  /// two's-complement addition a + ~b + 1; true iff a >= b unsigned).
  [[nodiscard]] static constexpr T sub_borrow(T a, T b, bool& no_borrow) {
    const U ua = static_cast<U>(a);
    const U ub = static_cast<U>(b);
    no_borrow = ua >= ub;
    return static_cast<T>(ua - ub);
  }

  /// Optimisation barrier for the nominal result of a checked operator.
  ///
  /// §5.1 of the paper: "analyses have been carried out to verify that the
  /// redundant operations for achieving the desired reliability are not
  /// 'simplified' by the compiler thus nullifying the operator overloading
  /// efforts." A modern optimizer *does* prove identities like
  /// (a + b) - a == b in wrapping arithmetic once the overloaded operator
  /// is inlined, silently deleting the hidden control. Laundering the
  /// nominal result through an empty asm makes it opaque to value
  /// propagation, so the inverse operation and comparison must really
  /// execute — which is what a faulty ALU needs them to do. Constant
  /// evaluation (constexpr) skips the barrier.
  [[nodiscard]] static constexpr T harden(T v) {
#if defined(__GNUC__) || defined(__clang__)
    if (!std::is_constant_evaluated()) {
      asm volatile("" : "+r"(v));
    }
#endif
    return v;
  }

  /// Checker-side equality (assumed reliable, see hw/comparator.h).
  [[nodiscard]] static constexpr bool eq(T a, T b) { return a == b; }

  /// Checker-side mod-3 residue of the ring value.
  [[nodiscard]] static constexpr unsigned residue3(T a) {
    return static_cast<unsigned>(static_cast<U>(a) % 3u);
  }
  /// Mod-3 residue of 2^bits(T) (the carry-wrap correction term).
  [[nodiscard]] static constexpr unsigned residue3_wrap() {
    return (std::numeric_limits<U>::digits % 2 == 0) ? 1u : 2u;
  }

  // Logic and shift operations (extension checks; see core/sck.h).
  [[nodiscard]] static constexpr T bit_and(T a, T b, OpRole = OpRole::kNominal) {
    return static_cast<T>(static_cast<U>(a) & static_cast<U>(b));
  }
  [[nodiscard]] static constexpr T bit_or(T a, T b, OpRole = OpRole::kNominal) {
    return static_cast<T>(static_cast<U>(a) | static_cast<U>(b));
  }
  [[nodiscard]] static constexpr T bit_xor(T a, T b, OpRole = OpRole::kNominal) {
    return static_cast<T>(static_cast<U>(a) ^ static_cast<U>(b));
  }
  [[nodiscard]] static constexpr T bit_not(T a, OpRole = OpRole::kNominal) {
    return static_cast<T>(~static_cast<U>(a));
  }
  [[nodiscard]] static constexpr T shl(T a, int k, OpRole = OpRole::kNominal) {
    return static_cast<T>(static_cast<U>(a) << k);
  }
  /// Right shift: arithmetic for signed T (C++20 semantics), logical for
  /// unsigned T. The inverse-shift check in SCK works for both because the
  /// re-shift left happens in the ring.
  [[nodiscard]] static constexpr T shr(T a, int k, OpRole = OpRole::kNominal) {
    return static_cast<T>(a >> k);
  }

  static constexpr int kBits = std::numeric_limits<U>::digits;
};

}  // namespace sck
