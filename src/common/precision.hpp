// Solve-precision selection shared by the D&C and MRRR drivers.
//
// Three modes are exposed through Options / the DNC_PREC environment knob:
//   F64           classic IEEE double solve (default, matches the paper)
//   F32           full solve in IEEE float: 8-lane AVX2 kernels, half the
//                 memory traffic, fp32-grade accuracy
//   F32RefineF64  fp32 solve followed by fp64 Rayleigh-quotient refinement
//                 of every eigenpair whose fp64 residual exceeds the
//                 refinement tolerance (lapack/refine.hpp): near-fp32
//                 throughput with fp64-grade residuals
#pragma once

#include <cstring>

#include "common/env.hpp"

namespace dnc {

enum class Precision { F64, F32, F32RefineF64 };

/// Canonical spelling, also the accepted DNC_PREC values.
inline const char* precision_name(Precision p) noexcept {
  switch (p) {
    case Precision::F32: return "f32";
    case Precision::F32RefineF64: return "f32refine";
    case Precision::F64: break;
  }
  return "f64";
}

/// Working-precision width in bits: what the kernels actually execute in.
/// F32RefineF64 runs the whole D&C pipeline (and all its GEMMs) in fp32 --
/// only the refinement epilogue is fp64 -- so its kernel precision is 32.
inline int precision_bits(Precision p) noexcept {
  return p == Precision::F64 ? 64 : 32;
}

/// Parses a DNC_PREC-style spelling; unknown strings map to F64.
inline Precision parse_precision(const char* s) noexcept {
  if (s == nullptr) return Precision::F64;
  if (std::strcmp(s, "f32") == 0 || std::strcmp(s, "fp32") == 0 ||
      std::strcmp(s, "single") == 0)
    return Precision::F32;
  if (std::strcmp(s, "f32refine") == 0 || std::strcmp(s, "mixed") == 0)
    return Precision::F32RefineF64;
  return Precision::F64;
}

/// Default for Options::precision: $DNC_PREC, read at each Options
/// construction so tests can setenv() mid-process.
inline Precision default_precision() noexcept {
  return parse_precision(env::raw("DNC_PREC"));
}

}  // namespace dnc
