// SCK<TYPE> — the paper's self-checking class template (§3).
//
// Replacing `int` with `SCK<int>` turns every arithmetic operation of a
// specification into a *checked* operation: the overloaded operator
// executes the nominal computation, re-derives one operand (or a zero sum)
// through the inverse operation, compares, and records any mismatch in an
// error bit E that travels with the datum (paper Fig. 1/Fig. 2). The check
// technique per operator is chosen at compile time via a TechniqueProfile
// (Table 1's Tech1 / Tech2 / Both, plus a mod-3 residue extension), and the
// execution backend is a policy type:
//
//   SCK<int>                                  host arithmetic, Tech1 (Fig. 2)
//   SCK<int, kHighCoverageProfile>            host arithmetic, Tech1&2
//   SCK<int, kDefaultProfile, HwOps<int>>     routed through the functional
//                                             hardware models for fault
//                                             injection (see core/ops_hw.h)
//
// Error-bit semantics: E(result) = E(lhs) | E(rhs) | check-failed. Once set,
// the bit propagates through every subsequent operation (§3: "operators are
// designed to propagate also the error bit value"), so a single test of
// GetError() at the output of a computation covers every intermediate step.
//
// Overflow: all inverse-operation identities hold exactly in the 2^N ring,
// so wrap-around never raises a false alarm; genuine overflow detection is
// a separate concern (the paper: "with the exception of overflows, which
// are separately dealt with") and SCK<T> does not model it.
#pragma once

#include <compare>
#include <type_traits>

#include "core/ops_native.h"
#include "core/profile.h"
#include "fault/technique.h"

namespace sck {

using fault::Technique;
using fault::uses_tech1;
using fault::uses_tech2;

template <typename T, TechniqueProfile P = kDefaultProfile,
          typename Ops = NativeOps<T>>
class SCK {
  static_assert(P.mul != Technique::kResidue3,
                "the mod-3 residue check needs the full-width product; "
                "select Tech1/Tech2/Both for multiplication");
  static_assert(P.div != Technique::kResidue3,
                "residue checking is not provided for division; "
                "select Tech1/Tech2/Both");

 public:
  using value_type = T;
  static constexpr TechniqueProfile profile = P;

  /// Empty constructor (required by the synthesis flow, paper Fig. 1).
  constexpr SCK() = default;

  /// Implicit wrap of a trusted plain value: E starts clear.
  constexpr SCK(T v) : id_(v) {}  // NOLINT(google-explicit-constructor)

  /// Internal datum ID (paper Fig. 1).
  [[nodiscard]] constexpr T GetID() const { return id_; }
  /// Error bit E (paper Fig. 1).
  [[nodiscard]] constexpr bool GetError() const { return error_; }

  /// Explicitly mark/clear the datum (e.g. after an application-level
  /// recovery action has re-validated it).
  constexpr void SetError() { error_ = true; }
  constexpr void ClearError() { error_ = false; }

  constexpr SCK& operator=(T v) {
    id_ = v;
    error_ = false;  // a fresh trusted assignment re-validates the datum
    return *this;
  }

  // ---- checked arithmetic -------------------------------------------------

  [[nodiscard]] friend constexpr SCK operator+(const SCK& x, const SCK& y) {
    bool ok = true;
    T ris;
    if constexpr (P.add == Technique::kResidue3) {
      bool carry = false;
      ris = Ops::harden(Ops::add_carry(x.id_, y.id_, carry));
      const unsigned lhs = (Ops::residue3(x.id_) + Ops::residue3(y.id_)) % 3u;
      const unsigned rhs =
          (Ops::residue3(ris) + (carry ? Ops::residue3_wrap() : 0u)) % 3u;
      ok = lhs == rhs;
    } else {
      ris = Ops::add(x.id_, y.id_, OpRole::kNominal);
      if constexpr (P.add != Technique::kNone) ris = Ops::harden(ris);
      if constexpr (uses_tech1(P.add)) {
        ok = ok && Ops::eq(Ops::sub(ris, x.id_, OpRole::kCheck), y.id_);
      }
      if constexpr (uses_tech2(P.add)) {
        ok = ok && Ops::eq(Ops::sub(ris, y.id_, OpRole::kCheck), x.id_);
      }
    }
    return SCK(ris, x.error_ || y.error_ || !ok);
  }

  [[nodiscard]] friend constexpr SCK operator-(const SCK& x, const SCK& y) {
    bool ok = true;
    T ris;
    if constexpr (P.sub == Technique::kResidue3) {
      bool no_borrow = false;
      ris = Ops::harden(Ops::sub_borrow(x.id_, y.id_, no_borrow));
      const unsigned lhs =
          (Ops::residue3(x.id_) + 3u - Ops::residue3(y.id_)) % 3u;
      const unsigned rhs =
          (Ops::residue3(ris) + 3u - (no_borrow ? 0u : Ops::residue3_wrap())) %
          3u;
      ok = lhs == rhs;
    } else {
      ris = Ops::sub(x.id_, y.id_, OpRole::kNominal);
      if constexpr (P.sub != Technique::kNone) ris = Ops::harden(ris);
      if constexpr (uses_tech1(P.sub)) {
        ok = ok && Ops::eq(Ops::add(ris, y.id_, OpRole::kCheck), x.id_);
      }
      if constexpr (uses_tech2(P.sub)) {
        const T risp = Ops::sub(y.id_, x.id_, OpRole::kCheck);
        ok = ok && Ops::eq(Ops::add(ris, risp, OpRole::kCheck), T{0});
      }
    }
    return SCK(ris, x.error_ || y.error_ || !ok);
  }

  /// Unary minus: checked as 0 - x.
  [[nodiscard]] friend constexpr SCK operator-(const SCK& x) {
    return SCK(T{0}) - x;
  }
  [[nodiscard]] friend constexpr SCK operator+(const SCK& x) { return x; }

  [[nodiscard]] friend constexpr SCK operator*(const SCK& x, const SCK& y) {
    T ris = Ops::mul(x.id_, y.id_, OpRole::kNominal);
    if constexpr (P.mul != Technique::kNone) ris = Ops::harden(ris);
    bool ok = true;
    if constexpr (uses_tech1(P.mul)) {
      const T risp =
          Ops::mul(Ops::neg(x.id_, OpRole::kCheck), y.id_, OpRole::kCheck);
      ok = ok && Ops::eq(Ops::add(ris, risp, OpRole::kCheck), T{0});
    }
    if constexpr (uses_tech2(P.mul)) {
      const T risp =
          Ops::mul(x.id_, Ops::neg(y.id_, OpRole::kCheck), OpRole::kCheck);
      ok = ok && Ops::eq(Ops::add(ris, risp, OpRole::kCheck), T{0});
    }
    return SCK(ris, x.error_ || y.error_ || !ok);
  }

  [[nodiscard]] friend constexpr SCK operator/(const SCK& x, const SCK& y) {
    T q{};
    T r{};
    const bool ok = checked_divide(x.id_, y.id_, q, r);
    return SCK(q, x.error_ || y.error_ || !ok);
  }

  [[nodiscard]] friend constexpr SCK operator%(const SCK& x, const SCK& y) {
    T q{};
    T r{};
    const bool ok = checked_divide(x.id_, y.id_, q, r);
    return SCK(r, x.error_ || y.error_ || !ok);
  }

  // ---- checked logic (extension: De Morgan dual / self-inverse) ----------

  [[nodiscard]] friend constexpr SCK operator&(const SCK& x, const SCK& y) {
    T ris = Ops::bit_and(x.id_, y.id_, OpRole::kNominal);
    if constexpr (P.check_logic) ris = Ops::harden(ris);
    bool ok = true;
    if constexpr (P.check_logic) {
      const T dual = Ops::bit_not(
          Ops::bit_or(Ops::bit_not(x.id_, OpRole::kCheck),
                      Ops::bit_not(y.id_, OpRole::kCheck), OpRole::kCheck),
          OpRole::kCheck);
      ok = Ops::eq(dual, ris);
    }
    return SCK(ris, x.error_ || y.error_ || !ok);
  }

  [[nodiscard]] friend constexpr SCK operator|(const SCK& x, const SCK& y) {
    T ris = Ops::bit_or(x.id_, y.id_, OpRole::kNominal);
    if constexpr (P.check_logic) ris = Ops::harden(ris);
    bool ok = true;
    if constexpr (P.check_logic) {
      const T dual = Ops::bit_not(
          Ops::bit_and(Ops::bit_not(x.id_, OpRole::kCheck),
                       Ops::bit_not(y.id_, OpRole::kCheck), OpRole::kCheck),
          OpRole::kCheck);
      ok = Ops::eq(dual, ris);
    }
    return SCK(ris, x.error_ || y.error_ || !ok);
  }

  [[nodiscard]] friend constexpr SCK operator^(const SCK& x, const SCK& y) {
    T ris = Ops::bit_xor(x.id_, y.id_, OpRole::kNominal);
    if constexpr (P.check_logic) ris = Ops::harden(ris);
    bool ok = true;
    if constexpr (P.check_logic) {
      // xor is its own inverse: (ris ^ op1) must reproduce op2.
      ok = Ops::eq(Ops::bit_xor(ris, x.id_, OpRole::kCheck), y.id_);
    }
    return SCK(ris, x.error_ || y.error_ || !ok);
  }

  [[nodiscard]] friend constexpr SCK operator~(const SCK& x) {
    T ris = Ops::bit_not(x.id_, OpRole::kNominal);
    if constexpr (P.check_logic) ris = Ops::harden(ris);
    bool ok = true;
    if constexpr (P.check_logic) {
      ok = Ops::eq(Ops::bit_not(ris, OpRole::kCheck), x.id_);
    }
    return SCK(ris, x.error_ || !ok);
  }

  // ---- checked shifts (extension: inverse shift over the kept bits) ------

  [[nodiscard]] friend constexpr SCK operator<<(const SCK& x, int k) {
    using U = std::make_unsigned_t<T>;
    T ris = Ops::shl(x.id_, k, OpRole::kNominal);
    if constexpr (P.check_shift) ris = Ops::harden(ris);
    bool ok = true;
    if constexpr (P.check_shift) {
      const T kept = static_cast<T>(static_cast<U>(x.id_) &
                                    (static_cast<U>(~U{0}) >> k));
      const U back = static_cast<U>(Ops::shr(ris, k, OpRole::kCheck)) &
                     (static_cast<U>(~U{0}) >> k);
      ok = Ops::eq(static_cast<T>(back), kept);
    }
    return SCK(ris, x.error_ || !ok);
  }

  [[nodiscard]] friend constexpr SCK operator>>(const SCK& x, int k) {
    using U = std::make_unsigned_t<T>;
    T ris = Ops::shr(x.id_, k, OpRole::kNominal);
    if constexpr (P.check_shift) ris = Ops::harden(ris);
    bool ok = true;
    if constexpr (P.check_shift) {
      const T kept =
          static_cast<T>(static_cast<U>(x.id_) & (static_cast<U>(~U{0}) << k));
      ok = Ops::eq(Ops::shl(ris, k, OpRole::kCheck), kept);
    }
    return SCK(ris, x.error_ || !ok);
  }

  // ---- compound assignment / increment ------------------------------------

  constexpr SCK& operator+=(const SCK& y) { return *this = *this + y; }
  constexpr SCK& operator-=(const SCK& y) { return *this = *this - y; }
  constexpr SCK& operator*=(const SCK& y) { return *this = *this * y; }
  constexpr SCK& operator/=(const SCK& y) { return *this = *this / y; }
  constexpr SCK& operator%=(const SCK& y) { return *this = *this % y; }
  constexpr SCK& operator&=(const SCK& y) { return *this = *this & y; }
  constexpr SCK& operator|=(const SCK& y) { return *this = *this | y; }
  constexpr SCK& operator^=(const SCK& y) { return *this = *this ^ y; }
  constexpr SCK& operator<<=(int k) { return *this = *this << k; }
  constexpr SCK& operator>>=(int k) { return *this = *this >> k; }

  constexpr SCK& operator++() { return *this += SCK(T{1}); }
  constexpr SCK& operator--() { return *this -= SCK(T{1}); }
  constexpr SCK operator++(int) {
    SCK old = *this;
    ++*this;
    return old;
  }
  constexpr SCK operator--(int) {
    SCK old = *this;
    --*this;
    return old;
  }

  // ---- comparisons (on the internal data; checker-side, unchecked) -------

  [[nodiscard]] friend constexpr bool operator==(const SCK& x, const SCK& y) {
    return x.id_ == y.id_;
  }
  [[nodiscard]] friend constexpr auto operator<=>(const SCK& x, const SCK& y) {
    return x.id_ <=> y.id_;
  }

 private:
  constexpr SCK(T v, bool e) : id_(v), error_(e) {}

  /// Shared by operator/ and operator%: one checked division producing both
  /// results. Returns false when the check failed or the division is
  /// undefined (division by zero raises the error bit).
  static constexpr bool checked_divide(T a, T b, T& q, T& r) {
    if (!Ops::div(a, b, q, r, OpRole::kNominal)) return false;
    if constexpr (P.div != Technique::kNone) {
      q = Ops::harden(q);
      r = Ops::harden(r);
    }
    bool ok = true;
    if constexpr (uses_tech1(P.div)) {
      const T op1p =
          Ops::add(Ops::mul(q, b, OpRole::kCheck), r, OpRole::kCheck);
      ok = ok && Ops::eq(op1p, a);
    }
    if constexpr (uses_tech2(P.div)) {
      const T t = Ops::mul(Ops::neg(q, OpRole::kCheck), b, OpRole::kCheck);
      const T op1p = Ops::sub(t, r, OpRole::kCheck);
      ok = ok && Ops::eq(Ops::add(a, op1p, OpRole::kCheck), T{0});
    }
    return ok;
  }

  T id_{};             ///< internal data ID (paper Fig. 1)
  bool error_ = false; ///< error bit E (paper Fig. 1)
};

/// Convenience aliases for the common instantiations.
using sck_int = SCK<int>;
using sck_int_hc = SCK<int, kHighCoverageProfile>;

}  // namespace sck
