// Dynamically generated brick libraries (paper §3: "a parameterized
// library model for the brick is created that includes the critical path,
// energy, area, and setup & hold times that are needed for use in the
// subsequent synthesis flow").
//
// A stacked-brick bank becomes a macro LibCell with NLDM LUTs built from
// the estimator over the load/slew grid, so the downstream synthesis, STA
// and power stages treat bricks exactly like (sequential) cells — the
// "white box" integration the paper argues for.
#pragma once

#include "brick/brick.hpp"
#include "brick/estimator.hpp"
#include "liberty/library.hpp"

namespace limsynth::brick {

/// Macro pin names used by generated brick cells (1R1W, paper Fig. 3):
///   CK (clock), RWL/WWL (decoded read/write wordlines; per-row bus pins
///   modeled once), WDATA (write data), DO (data out).
/// CAM bricks additionally expose SDATA (search word) and MATCH.
liberty::LibCell make_brick_libcell(const Brick& brick);

}  // namespace limsynth::brick
