#include "core/datapath.h"

#include <array>
#include <stdexcept>
#include <string>

#include "core/ipu.h"
#include "core/nibble.h"
#include "core/serial_ipu.h"
#include "core/spatial_ipu.h"

namespace mpipu {

const char* scheme_name(DecompositionScheme s) {
  switch (s) {
    case DecompositionScheme::kTemporal: return "temporal";
    case DecompositionScheme::kSerial: return "serial";
    case DecompositionScheme::kSpatial: return "spatial";
  }
  return "?";
}

Datapath::Datapath(const DatapathConfig& cfg, DecompositionScheme scheme)
    : cfg_(cfg), acc_(cfg.accumulator) {
  if (cfg.scheme != scheme) {
    throw std::invalid_argument(std::string("Datapath: a ") +
                                scheme_name(scheme) +
                                " unit cannot be built from a " +
                                scheme_name(cfg.scheme) + " config");
  }
  if (cfg.n_inputs < 1) {
    throw std::invalid_argument(
        "DatapathConfig: n_inputs must be >= 1 (got " +
        std::to_string(cfg.n_inputs) + ")");
  }
}

std::unique_ptr<Datapath> make_datapath(const DatapathConfig& cfg) {
  switch (cfg.scheme) {
    case DecompositionScheme::kTemporal:
      return std::make_unique<Ipu>(cfg);
    case DecompositionScheme::kSerial:
      return std::make_unique<SerialIpu>(cfg);
    case DecompositionScheme::kSpatial:
      return std::make_unique<SpatialIpu>(cfg);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Scheme-generic tile costing.
// ---------------------------------------------------------------------------

int fp16_iterations_per_op(DecompositionScheme s) {
  switch (s) {
    case DecompositionScheme::kTemporal:
      return fp_nibble_count(kFp16Format) * fp_nibble_count(kFp16Format);  // 9
    case DecompositionScheme::kSerial:
      return kFp16Format.sig_bits() + 1;  // 12 weight-bit steps
    case DecompositionScheme::kSpatial:
      return 1;
  }
  return 1;
}

namespace {

/// Static nibble-significance offsets of the spatial scheme's nine FP16
/// lane products: top_weight - (wi + wj) with wi, wj in {-1, 3, 7}.
constexpr std::array<int, 9> fp16_spatial_offsets() {
  constexpr int kn = fp_nibble_count(kFp16Format);
  constexpr int z = fp_pad_bits(kFp16Format);
  constexpr int top_weight = 2 * (4 * (kn - 1) - z);
  std::array<int, 9> offs{};
  int idx = 0;
  for (int i = 0; i < kn; ++i) {
    for (int j = 0; j < kn; ++j) {
      offs[static_cast<size_t>(idx++)] = top_weight - (4 * i - z) - (4 * j - z);
    }
  }
  return offs;
}

}  // namespace

int fp16_op_service_cycles(std::span<const int> product_exps,
                           const DatapathConfig& cfg) {
  const int iters = fp16_iterations_per_op(cfg.scheme);
  int max_exp = kMaskedProductExp;
  for (int e : product_exps) max_exp = std::max(max_exp, e);
  if (!cfg.multi_cycle || max_exp == kMaskedProductExp) return iters;

  const int sp = std::max(cfg.safe_precision(), 1);
  const bool spatial = cfg.scheme == DecompositionScheme::kSpatial;
  static constexpr std::array<int, 9> kSpatialOffsets = fp16_spatial_offsets();

  uint64_t occupied = 0;  // bit b set <=> band b occupied
  for (int e : product_exps) {
    if (e == kMaskedProductExp) continue;
    const int d = max_exp - e;
    if (d > cfg.software_precision) continue;
    if (spatial) {
      for (int off : kSpatialOffsets) {
        occupied |= uint64_t{1} << std::min((d + off) / sp, 63);
      }
    } else {
      occupied |= uint64_t{1} << std::min(d / sp, 63);
    }
  }
  int bands;
  if (cfg.skip_empty_bands) {
    bands = std::max(1, __builtin_popcountll(occupied));
  } else {
    bands = occupied == 0 ? 1 : 64 - __builtin_clzll(occupied);
  }
  return iters * bands;
}

}  // namespace mpipu
