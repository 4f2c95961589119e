// Runtime SIMD dispatch: which SimdKernels table (simd_kernels.h) a
// SIMD-kind machine (BackendKind::kSimd / kParallelSimd) executes through.
//
// The binary carries one kernel table per ISA level it was compiled for
// (scalar always; AVX2/AVX-512 on x86-64, NEON on aarch64). At machine
// construction, simd_resolve_level() picks the best table the CPU supports —
// or honors FOLVEC_SIMD_LEVEL forcing, downgrading with a one-time notice
// when the forced level is unavailable — and simd_kernels_for() returns it
// with every null entry (a level with no profitable lowering for an op)
// filled from the scalar table, so a resolved table is total and stays
// bit-identical by construction. The one entry left nullable is
// conflict_rank: null there means the level has no hardware conflict
// detection.
#pragma once

#include <cstddef>

#include "vm/machine.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {

/// Best kernel level the running CPU supports among those compiled into this
/// binary. Never returns kAuto; returns kScalar when no vector TU is present
/// or no CPUID/auxv feature bit matches.
SimdLevel simd_host_level();

/// True when `level`'s kernel table is compiled in AND the host CPU can
/// execute it. kScalar is always supported; kAuto is never (resolve first).
bool simd_level_supported(SimdLevel level);

/// Resolves a requested level (typically MachineConfig::simd_level) to a
/// runnable one: kAuto becomes simd_host_level(); an unsupported forced
/// level degrades to the best supported level of lower rank, with a one-time
/// stderr notice. The result always satisfies simd_level_supported().
SimdLevel simd_resolve_level(SimdLevel requested);

/// Kernel table for a resolved level, null entries (except conflict_rank)
/// filled from the scalar table. `level` must satisfy
/// simd_level_supported(); anything else gets the scalar table.
const SimdKernels& simd_kernels_for(SimdLevel level);

/// Telemetry/env spelling: "scalar", "neon", "avx2", "avx512", "auto".
const char* simd_level_name(SimdLevel level);

/// Parses a FOLVEC_SIMD_LEVEL spelling ("auto", "scalar", "neon", "avx2",
/// "avx512"). Unknown spellings return kAuto after a one-time warning.
SimdLevel simd_parse_level(const char* spelling);

}  // namespace folvec::vm
