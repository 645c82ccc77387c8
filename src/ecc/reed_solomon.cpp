#include "ecc/reed_solomon.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "ecc/gf256.hpp"
#include "obs/metrics_registry.hpp"

namespace jrsnd::ecc {

namespace {

// Polynomials below are stored in ascending order: p[i] is the coefficient
// of x^i. The codeword itself is stored in transmission order, cw[0] being
// the coefficient of x^{n-1} (systematic data first).

using Poly = std::vector<std::uint8_t>;

void trim(Poly& p) {
  while (p.size() > 1 && p.back() == 0) p.pop_back();
}

[[nodiscard]] int degree(const Poly& p) {
  for (std::size_t i = p.size(); i-- > 0;) {
    if (p[i] != 0) return static_cast<int>(i);
  }
  return -1;  // zero polynomial
}

[[nodiscard]] bool is_zero(const Poly& p) { return degree(p) < 0; }

/// out = a * b. `out` must alias neither operand.
void poly_mul(const Poly& a, const Poly& b, Poly& out) {
  out.assign(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = GF256::add(out[i + j], GF256::mul(a[i], b[j]));
    }
  }
}

/// acc += b.
void poly_add_to(Poly& acc, const Poly& b) {
  if (acc.size() < b.size()) acc.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) acc[i] = GF256::add(acc[i], b[i]);
}

void poly_scale(Poly& a, std::uint8_t s) {
  for (std::uint8_t& c : a) c = GF256::mul(c, s);
}

/// Evaluates an ascending-order polynomial at x (Horner from the top).
[[nodiscard]] std::uint8_t poly_eval(const Poly& p, std::uint8_t x) {
  std::uint8_t acc = 0;
  for (std::size_t i = p.size(); i-- > 0;) acc = GF256::add(GF256::mul(acc, x), p[i]);
  return acc;
}

/// Polynomial division in place: `a` becomes the remainder r and `q` the
/// quotient, with a = q*b + r on entry.
void poly_divmod(Poly& a, const Poly& b, Poly& q) {
  const int db = degree(b);
  assert(db >= 0);
  q.assign(std::max<std::size_t>(a.size(), 1), 0);
  int da = degree(a);
  const std::uint8_t lead_inv = GF256::inv(b[static_cast<std::size_t>(db)]);
  while (da >= db) {
    const std::uint8_t coef = GF256::mul(a[static_cast<std::size_t>(da)], lead_inv);
    const std::size_t shift = static_cast<std::size_t>(da - db);
    q[shift] = coef;
    for (int i = 0; i <= db; ++i) {
      a[shift + static_cast<std::size_t>(i)] =
          GF256::add(a[shift + static_cast<std::size_t>(i)],
                     GF256::mul(coef, b[static_cast<std::size_t>(i)]));
    }
    da = degree(a);
  }
  trim(q);
  trim(a);
}

/// Formal derivative in characteristic 2: only odd-power terms survive.
void poly_derivative(const Poly& p, Poly& out) {
  out.assign(std::max<std::size_t>(p.size() - 1, 1), 0);
  for (std::size_t j = 1; j < p.size(); j += 2) out[j - 1] = p[j];
}

/// Counts the decode outcome on scope exit, whichever return path fires.
class DecodeScope {
 public:
  DecodeScope() { JRSND_COUNT("ecc.rs.decode.calls"); }
  ~DecodeScope() {
    if (ok_) {
      JRSND_COUNT("ecc.rs.decode.ok");
    } else {
      JRSND_COUNT("ecc.rs.decode.fail");
    }
  }
  void success() noexcept { ok_ = true; }

 private:
  bool ok_ = false;
};

}  // namespace

ReedSolomon::ReedSolomon(int n, int k) : n_(n), k_(k) {
  if (!(0 < k && k < n && n <= 255)) {
    throw std::invalid_argument("ReedSolomon: require 0 < k < n <= 255");
  }
  // Generator g(x) = prod_{i=0}^{n-k-1} (x + alpha^i), stored descending
  // (generator_[0] is the leading coefficient, always 1).
  generator_ = {1};
  for (int i = 0; i < n - k; ++i) {
    const std::uint8_t root = GF256::exp(i);
    Poly next(generator_.size() + 1, 0);
    next[0] = generator_[0];
    for (std::size_t j = 1; j < generator_.size(); ++j) {
      next[j] = GF256::add(generator_[j], GF256::mul(root, generator_[j - 1]));
    }
    next[generator_.size()] = GF256::mul(root, generator_.back());
    generator_ = std::move(next);
  }
  // LFSR table: row v holds v * (g_1 .. g_{n-k}) — the parity-register XOR
  // contribution of a data symbol whose feedback byte is v.
  const std::size_t parity_len = static_cast<std::size_t>(n_ - k_);
  encode_table_.assign(256 * parity_len, 0);
  for (std::size_t v = 0; v < 256; ++v) {
    for (std::size_t j = 0; j < parity_len; ++j) {
      encode_table_[v * parity_len + j] =
          GF256::mul(static_cast<std::uint8_t>(v), generator_[j + 1]);
    }
  }
}

std::vector<std::uint8_t> ReedSolomon::encode(std::span<const std::uint8_t> data) const {
  std::vector<std::uint8_t> codeword;
  encode_into(data, codeword);
  return codeword;
}

void ReedSolomon::encode_into(std::span<const std::uint8_t> data,
                              std::vector<std::uint8_t>& out) const {
  assert(static_cast<int>(data.size()) == k_);
  JRSND_COUNT("ecc.rs.encode.calls");
  const std::size_t parity_len = static_cast<std::size_t>(n_ - k_);
  out.clear();
  out.resize(static_cast<std::size_t>(n_), 0);
  std::copy(data.begin(), data.end(), out.begin());
  // Table-driven LFSR form of the long division of data(x) * x^{n-k} by
  // g(x): the parity register lives in out's tail; each data symbol shifts
  // it left and XORs in one precomputed row. Same remainder as the schoolbook
  // division, one table row instead of a per-coefficient GF multiply.
  std::uint8_t* reg = out.data() + k_;
  for (const std::uint8_t byte : data) {
    const std::uint8_t feedback = static_cast<std::uint8_t>(byte ^ reg[0]);
    const std::uint8_t* row = encode_table_.data() + std::size_t{feedback} * parity_len;
    for (std::size_t j = 0; j + 1 < parity_len; ++j) {
      reg[j] = static_cast<std::uint8_t>(reg[j + 1] ^ row[j]);
    }
    reg[parity_len - 1] = row[parity_len - 1];
  }
}

std::optional<std::vector<std::uint8_t>> ReedSolomon::decode(
    std::span<const std::uint8_t> received, std::span<const int> erasures) const {
  DecodeScratch scratch;
  std::vector<std::uint8_t> out;
  if (!decode_into(received, erasures, out, scratch)) return std::nullopt;
  return out;
}

bool ReedSolomon::decode_into(std::span<const std::uint8_t> received,
                              std::span<const int> erasures, std::vector<std::uint8_t>& out,
                              DecodeScratch& scratch, DecodeMode mode) const {
  DecodeScope scope;
  if (static_cast<int>(received.size()) != n_) return false;
  const int two_t = n_ - k_;

  // Deduplicate and validate erasure positions via per-position flags in the
  // scratch (no node-based set allocation on the hot path).
  scratch.erased.assign(static_cast<std::size_t>(n_), 0);
  int f = 0;
  for (const int pos : erasures) {
    if (pos < 0 || pos >= n_) return false;
    if (scratch.erased[static_cast<std::size_t>(pos)] == 0) {
      scratch.erased[static_cast<std::size_t>(pos)] = 1;
      ++f;
    }
  }
  JRSND_COUNT_N("ecc.rs.decode.erasures", f);
  if (f > two_t) return false;

  scratch.cw.assign(received.begin(), received.end());
  std::vector<std::uint8_t>& cw = scratch.cw;
  // Erased symbols carry no information; zero them so their "error" value is
  // simply the transmitted symbol.
  for (int pos = 0; pos < n_; ++pos) {
    if (scratch.erased[static_cast<std::size_t>(pos)] != 0) cw[static_cast<std::size_t>(pos)] = 0;
  }

  // Syndromes S_j = c(alpha^j), j = 0..2t-1 (Horner over descending coeffs).
  scratch.syndromes.assign(static_cast<std::size_t>(two_t), 0);
  bool all_zero = true;
  for (int j = 0; j < two_t; ++j) {
    const std::uint8_t x = GF256::exp(j);
    std::uint8_t acc = 0;
    for (int i = 0; i < n_; ++i) acc = GF256::add(GF256::mul(acc, x), cw[static_cast<std::size_t>(i)]);
    scratch.syndromes[static_cast<std::size_t>(j)] = acc;
    if (acc != 0) all_zero = false;
  }
  if (all_zero && mode == DecodeMode::kAuto) {
    // Codeword is valid as-is (including the zeroed erasures) — the clean
    // channel fast path: no locator algebra, no allocation.
    JRSND_COUNT("ecc.rs.decode.clean");
    out.assign(cw.begin(), cw.begin() + k_);
    scope.success();
    return true;
  }

  // Full errata pipeline (jammed or corrupted words), in the scratch's
  // polynomial workspaces.
  const Poly& syndromes = scratch.syndromes;

  // Erasure locator Gamma(x) = prod (1 + X_i x), X_i = alpha^{n-1-pos}:
  // each factor multiplies in place, top coefficient first.
  Poly& gamma = scratch.gamma;
  gamma.assign(1, 1);
  for (int pos = 0; pos < n_; ++pos) {
    if (scratch.erased[static_cast<std::size_t>(pos)] == 0) continue;
    const std::uint8_t X = GF256::exp(n_ - 1 - pos);
    gamma.push_back(0);
    for (std::size_t i = gamma.size() - 1; i > 0; --i) {
      gamma[i] = GF256::add(gamma[i], GF256::mul(X, gamma[i - 1]));
    }
  }

  // Modified syndrome Xi(x) = S(x) * Gamma(x) mod x^{2t}.
  Poly& r_cur = scratch.r_cur;
  poly_mul(syndromes, gamma, r_cur);
  if (r_cur.size() > static_cast<std::size_t>(two_t)) r_cur.resize(static_cast<std::size_t>(two_t));
  if (r_cur.empty()) r_cur.push_back(0);

  // Sugiyama (extended Euclid) on (x^{2t}, Xi): stop when 2*deg(r) < 2t + f.
  // Each step divides r_prev by r_cur in place (r_prev becomes the
  // remainder) and folds q * t_cur into t_prev; the swaps then shift the
  // pairs down one step.
  Poly& r_prev = scratch.r_prev;
  r_prev.assign(static_cast<std::size_t>(two_t) + 1, 0);
  r_prev.back() = 1;  // x^{2t}
  trim(r_cur);
  Poly& t_prev = scratch.t_prev;
  Poly& t_cur = scratch.t_cur;
  t_prev.assign(1, 0);
  t_cur.assign(1, 1);
  while (!is_zero(r_cur) && 2 * degree(r_cur) >= two_t + f) {
    poly_divmod(r_prev, r_cur, scratch.q);
    poly_mul(scratch.q, t_cur, scratch.product);
    poly_add_to(t_prev, scratch.product);
    std::swap(r_prev, r_cur);
    std::swap(t_prev, t_cur);
  }
  Poly& lambda = t_cur;  // error locator (up to a scalar)
  Poly& omega = r_cur;   // errata evaluator (same scalar)
  trim(lambda);
  trim(omega);
  if (lambda.empty() || lambda[0] == 0) return false;
  const std::uint8_t norm = GF256::inv(lambda[0]);
  poly_scale(lambda, norm);
  poly_scale(omega, norm);

  // Combined errata locator Psi = Lambda * Gamma.
  Poly& psi = scratch.psi;
  poly_mul(lambda, gamma, psi);
  const int errata_count = degree(psi);
  const int error_count = degree(lambda);
  if (error_count < 0 || 2 * error_count + f > two_t) return false;

  // Chien search: position power p corresponds to codeword index n-1-p.
  std::vector<int>& errata_indices = scratch.errata_indices;
  std::vector<std::uint8_t>& errata_locators = scratch.errata_locators;  // X = alpha^p
  errata_indices.clear();
  errata_locators.clear();
  for (int p = 0; p < n_; ++p) {
    const std::uint8_t x_inv = GF256::exp(-p);
    if (poly_eval(psi, x_inv) == 0) {
      errata_indices.push_back(n_ - 1 - p);
      errata_locators.push_back(GF256::exp(p));
    }
  }
  if (static_cast<int>(errata_indices.size()) != errata_count) return false;

  // Forney magnitudes (roots start at alpha^0, so b = 0):
  //   e = X * Omega(X^{-1}) / Psi'(X^{-1}).
  Poly& psi_deriv = scratch.psi_deriv;
  poly_derivative(psi, psi_deriv);
  for (std::size_t idx = 0; idx < errata_indices.size(); ++idx) {
    const std::uint8_t X = errata_locators[idx];
    const std::uint8_t x_inv = GF256::inv(X);
    const std::uint8_t denom = poly_eval(psi_deriv, x_inv);
    if (denom == 0) return false;
    const std::uint8_t num = GF256::mul(X, poly_eval(omega, x_inv));
    const std::uint8_t magnitude = GF256::div(num, denom);
    cw[static_cast<std::size_t>(errata_indices[idx])] =
        GF256::add(cw[static_cast<std::size_t>(errata_indices[idx])], magnitude);
  }

  // Re-verify: all syndromes of the corrected word must vanish.
  for (int j = 0; j < two_t; ++j) {
    const std::uint8_t x = GF256::exp(j);
    std::uint8_t acc = 0;
    for (int i = 0; i < n_; ++i) acc = GF256::add(GF256::mul(acc, x), cw[static_cast<std::size_t>(i)]);
    if (acc != 0) return false;
  }

  scope.success();
  JRSND_COUNT_N("ecc.rs.decode.errors_corrected", error_count);
  out.assign(cw.begin(), cw.begin() + k_);
  return true;
}

}  // namespace jrsnd::ecc
