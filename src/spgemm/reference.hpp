// Reference SpGEMM (Gustavson's column-wise algorithm with a dense
// sparse-accumulator), used as the functional golden model both
// accelerator simulators must match. It shares no code with the core
// models (arch/cores.cpp), so it stays an independent oracle.
#pragma once

#include "spgemm/sparse.hpp"

namespace limsynth::spgemm {

/// C = A * B, on one worker per hardware thread over column chunks of
/// equal flops. A first pass counts each column's rows, so C is allocated
/// once at its exact size; a second sums each column in the serial
/// algorithm's order and writes its sorted rows in place, so every value
/// is bit-identical to the one-thread column loop.
SparseMatrix multiply_reference(const SparseMatrix& a, const SparseMatrix& b);

}  // namespace limsynth::spgemm
