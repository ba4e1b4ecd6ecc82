#ifndef AUTHDB_CRYPTO_FP2_H_
#define AUTHDB_CRYPTO_FP2_H_

#include "crypto/fp.h"

namespace authdb {

/// Element of the quadratic extension F_p^2 = F_p[i] / (i^2 + 1).
/// Valid because p = 3 (mod 4) makes -1 a non-residue.
struct Fp2Elem {
  Fp re, im;  // Montgomery form
};

/// Arithmetic in F_p^2, layered on a PrimeField. Pairing values live here.
class Fp2Field {
 public:
  explicit Fp2Field(const PrimeField* fp) : fp_(fp) {}

  Fp2Elem Zero() const { return Fp2Elem{}; }
  Fp2Elem One() const { return Fp2Elem{fp_->One(), Fp{}}; }
  Fp2Elem FromFp(const Fp& a) const { return Fp2Elem{a, Fp{}}; }
  Fp2Elem Make(const Fp& re, const Fp& im) const { return Fp2Elem{re, im}; }

  bool IsZero(const Fp2Elem& a) const {
    return a.re.IsZero() && a.im.IsZero();
  }
  bool Equal(const Fp2Elem& a, const Fp2Elem& b) const {
    return a.re == b.re && a.im == b.im;
  }

  Fp2Elem Add(const Fp2Elem& a, const Fp2Elem& b) const {
    return Fp2Elem{fp_->Add(a.re, b.re), fp_->Add(a.im, b.im)};
  }
  Fp2Elem Sub(const Fp2Elem& a, const Fp2Elem& b) const {
    return Fp2Elem{fp_->Sub(a.re, b.re), fp_->Sub(a.im, b.im)};
  }
  Fp2Elem Neg(const Fp2Elem& a) const {
    return Fp2Elem{fp_->Neg(a.re), fp_->Neg(a.im)};
  }

  /// (a + bi)(c + di) = (ac - bd) + ((a + b)(c + d) - ac - bd) i
  Fp2Elem Mul(const Fp2Elem& a, const Fp2Elem& b) const {
    Fp ac = fp_->Mul(a.re, b.re);
    Fp bd = fp_->Mul(a.im, b.im);
    Fp cross = fp_->Mul(fp_->Add(a.re, a.im), fp_->Add(b.re, b.im));
    return Fp2Elem{fp_->Sub(ac, bd), fp_->Sub(fp_->Sub(cross, ac), bd)};
  }

  /// (a + bi)^2 = (a-b)(a+b) + 2ab i
  Fp2Elem Sqr(const Fp2Elem& a) const {
    Fp t1 = fp_->Sub(a.re, a.im);
    Fp t2 = fp_->Add(a.re, a.im);
    Fp ab = fp_->Mul(a.re, a.im);
    return Fp2Elem{fp_->Mul(t1, t2), fp_->Dbl(ab)};
  }

  /// Frobenius / complex conjugation: (a + bi)^p = a - bi when p = 3 mod 4.
  Fp2Elem Conj(const Fp2Elem& a) const {
    return Fp2Elem{a.re, fp_->Neg(a.im)};
  }

  /// (a + bi)^-1 = (a - bi) / (a^2 + b^2)
  Fp2Elem Inv(const Fp2Elem& a) const {
    Fp norm = fp_->Add(fp_->Sqr(a.re), fp_->Sqr(a.im));
    Fp ni = fp_->Inv(norm);
    return Fp2Elem{fp_->Mul(a.re, ni), fp_->Mul(fp_->Neg(a.im), ni)};
  }

  /// a^e for a plain exponent e (fp_internal::WindowedExp).
  Fp2Elem Exp(const Fp2Elem& a, const Fp& e) const {
    return fp_internal::WindowedExp(*this, a, e);
  }

  const PrimeField& fp() const { return *fp_; }

 private:
  const PrimeField* fp_;
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_FP2_H_
