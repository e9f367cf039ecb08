// 64-bit FNV-1a: the repo's one content hash (model and graph
// fingerprints, golden-vector digests).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace mpipu {

/// Incremental 64-bit FNV-1a.  `bytes` is the textbook byte-at-a-time hash;
/// `doubles` folds each value's 64-bit encoding in as ONE xor-multiply step,
/// eight times fewer steps for weight arrays.  Every step is a bijection of
/// the state, so changing any single byte (resp. word) -- a one-ulp weight
/// edit -- always changes the digest.  The two entry points give different
/// digests for the same data: each field picks one and keeps it.
class Fnv1a {
 public:
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) step(b[i]);
  }
  void doubles(std::span<const double> v) {
    for (double d : v) step(std::bit_cast<uint64_t>(d));
  }
  void str(const std::string& s) {
    const uint64_t n = s.size();
    bytes(&n, sizeof(n));
    bytes(s.data(), s.size());
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  void step(uint64_t w) {
    h_ ^= w;
    h_ *= 1099511628211ull;
  }

  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace mpipu
