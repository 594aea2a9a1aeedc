// Hardware-model backend for SCK<T>.
//
// Routes every operation of the overloaded operators through the functional
// hardware units of src/hw via an AluPool, so that fault-injection
// campaigns can exercise the *whole* SCK mechanism end to end (not just the
// per-operator trials of src/fault). Values are carried in the pool's n-bit
// two's-complement ring; T values outside the ring are truncated on entry
// and sign-extended on exit.
//
// The backend is installed per thread with ScopedAluPool:
//
//   AluPool pool(8, AllocationPolicy::kSharedSingle);
//   pool.inject(UnitKind::kAdder, some_fault);
//   ScopedAluPool guard(pool);
//   SCK<int, kDefaultProfile, HwOps<int>> a = 3, b = 4;
//   auto c = a + b;          // runs on the faulty 8-bit ripple adder
//
// Logic and shift operations are computed on the host: the paper's
// quantitative fault model covers the arithmetic units, and the hw
// substrate models those; logic units are assumed fault-free here.
#pragma once

#include <type_traits>

#include "common/assert.h"
#include "common/word.h"
#include "core/alu_pool.h"
#include "core/ops_native.h"

namespace sck {

/// RAII installation of the thread's active AluPool.
class ScopedAluPool {
 public:
  explicit ScopedAluPool(AluPool& pool) : prev_(current_) { current_ = &pool; }
  ~ScopedAluPool() { current_ = prev_; }
  ScopedAluPool(const ScopedAluPool&) = delete;
  ScopedAluPool& operator=(const ScopedAluPool&) = delete;

  [[nodiscard]] static AluPool& current() {
    SCK_EXPECTS(current_ != nullptr);
    return *current_;
  }
  [[nodiscard]] static bool installed() { return current_ != nullptr; }

 private:
  static inline thread_local AluPool* current_ = nullptr;
  AluPool* prev_;
};

template <typename T>
struct HwOps {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  using Native = NativeOps<T>;

  [[nodiscard]] static T add(T a, T b, OpRole role = OpRole::kNominal) {
    AluPool& pool = ScopedAluPool::current();
    const int n = pool.width();
    return decode(pool.adder(role).add(encode(a, n), encode(b, n)), n);
  }
  [[nodiscard]] static T sub(T a, T b, OpRole role = OpRole::kNominal) {
    AluPool& pool = ScopedAluPool::current();
    const int n = pool.width();
    return decode(pool.adder(role).sub(encode(a, n), encode(b, n)), n);
  }
  [[nodiscard]] static T mul(T a, T b, OpRole role = OpRole::kNominal) {
    AluPool& pool = ScopedAluPool::current();
    const int n = pool.width();
    return decode(pool.multiplier(role).mul(encode(a, n), encode(b, n)), n);
  }
  [[nodiscard]] static T neg(T a, OpRole role = OpRole::kNominal) {
    AluPool& pool = ScopedAluPool::current();
    const int n = pool.width();
    return decode(pool.adder(role).negate(encode(a, n)), n);
  }

  /// Division: sign logic on the host (fault-free control), magnitude
  /// division on the divider unit.
  [[nodiscard]] static bool div(T a, T b, T& q, T& r,
                                OpRole role = OpRole::kNominal) {
    if (b == 0) {
      q = 0;
      r = 0;
      return false;
    }
    AluPool& pool = ScopedAluPool::current();
    const int n = pool.width();
    if constexpr (std::is_signed_v<T>) {
      const bool neg_a = a < 0;
      const bool neg_b = b < 0;
      const Word ua = encode(neg_a ? -static_cast<long long>(a) : a, n);
      const Word ub = encode(neg_b ? -static_cast<long long>(b) : b, n);
      if (ub == 0) {  // magnitude truncated to zero in the ring
        q = 0;
        r = 0;
        return false;
      }
      const hw::DivResult dr = pool.divider(role).divide(ua, ub);
      const auto uq = static_cast<long long>(trunc(dr.quotient, n));
      const auto ur = static_cast<long long>(trunc(dr.remainder, n));
      q = static_cast<T>((neg_a != neg_b) ? -uq : uq);
      r = static_cast<T>(neg_a ? -ur : ur);
    } else {
      const Word ub = encode(b, n);
      if (ub == 0) {
        q = 0;
        r = 0;
        return false;
      }
      const hw::DivResult dr = pool.divider(role).divide(encode(a, n), ub);
      q = static_cast<T>(trunc(dr.quotient, n));
      r = static_cast<T>(trunc(dr.remainder, n));
    }
    return true;
  }

  [[nodiscard]] static T add_carry(T a, T b, bool& carry_out) {
    AluPool& pool = ScopedAluPool::current();
    const int n = pool.width();
    return decode(pool.adder(OpRole::kNominal)
                      .add_c_out(encode(a, n), encode(b, n), false, carry_out),
                  n);
  }

  [[nodiscard]] static T sub_borrow(T a, T b, bool& no_borrow) {
    AluPool& pool = ScopedAluPool::current();
    const int n = pool.width();
    const Word nb = trunc(~encode(b, n), n);
    return decode(
        pool.adder(OpRole::kNominal).add_c_out(encode(a, n), nb, true, no_borrow),
        n);
  }

  /// The hardware backend computes nominal and check operations on real
  /// (separate or shared) unit models; nothing to protect from the
  /// compiler.
  [[nodiscard]] static T harden(T v) { return v; }

  [[nodiscard]] static bool eq(T a, T b) {
    const int n = ScopedAluPool::current().width();
    return encode(a, n) == encode(b, n);
  }

  [[nodiscard]] static unsigned residue3(T a) {
    const int n = ScopedAluPool::current().width();
    return static_cast<unsigned>(encode(a, n) % 3u);
  }
  [[nodiscard]] static unsigned residue3_wrap() {
    const int n = ScopedAluPool::current().width();
    return (n % 2 == 0) ? 1u : 2u;
  }

  // Logic/shift: host-computed (no logic units in the hw substrate).
  [[nodiscard]] static T bit_and(T a, T b, OpRole = OpRole::kNominal) {
    return Native::bit_and(a, b);
  }
  [[nodiscard]] static T bit_or(T a, T b, OpRole = OpRole::kNominal) {
    return Native::bit_or(a, b);
  }
  [[nodiscard]] static T bit_xor(T a, T b, OpRole = OpRole::kNominal) {
    return Native::bit_xor(a, b);
  }
  [[nodiscard]] static T bit_not(T a, OpRole = OpRole::kNominal) {
    return Native::bit_not(a);
  }
  [[nodiscard]] static T shl(T a, int k, OpRole = OpRole::kNominal) {
    return Native::shl(a, k);
  }
  [[nodiscard]] static T shr(T a, int k, OpRole = OpRole::kNominal) {
    return Native::shr(a, k);
  }

 private:
  [[nodiscard]] static Word encode(long long v, int n) {
    return from_signed(v, n);
  }
  [[nodiscard]] static T decode(Word w, int n) {
    if constexpr (std::is_signed_v<T>) {
      return static_cast<T>(to_signed(w, n));
    } else {
      return static_cast<T>(trunc(w, n));
    }
  }
};

}  // namespace sck
