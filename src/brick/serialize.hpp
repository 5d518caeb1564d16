// Versioned binary serialization of CompiledBrick for the on-disk store.
//
// The codec is a flat, explicitly-ordered field dump: fixed-width
// little-host integers, doubles as raw IEEE-754 bits (so a reloaded
// estimate is bit-identical to the computed one), length-prefixed strings.
// The macro LibCell is stored as its Liberty text (liberty/writer.hpp),
// which is exact too, so the store and the flow share one cell format.
// There is no in-band schema — the schema IS the code — which is why
// kBrickSchemaVersion must be bumped on ANY change to the field list, to
// the structs it mirrors (Brick, BrickEstimate, Process, Bitcell,
// BrickLayout) or to the Liberty text. The store folds this constant into
// the content-addressed entry name, so a bump makes every stale entry
// simply miss (recompile) instead of misparse; the version in the entry
// header is a second, belt-and-braces guard for entries reached another
// way.
//
// decode never throws and never reads out of bounds: any truncated,
// corrupt, or oversized field makes it return false, and the store
// quarantines the entry.
#pragma once

#include <string>

#include "brick/cache.hpp"

namespace limsynth::brick {

/// Bump on any serialized-layout change (see header comment).
inline constexpr std::uint32_t kBrickSchemaVersion = 2;

/// A brick's macro cell in its one serialized form: a one-cell Liberty
/// library named after the cell, exact in every field.
std::string libcell_to_liberty(const liberty::LibCell& cell);

/// Reads libcell_to_liberty text back. Throws Error(kInvalidConfig) on
/// malformed text or on a library that does not hold exactly one cell.
liberty::LibCell libcell_from_liberty(const std::string& text);

/// Appends the canonical encoding of `cb` to `out`. Deterministic: equal
/// inputs produce equal bytes (two racing writers publish identical
/// entries).
void encode_compiled_brick(const CompiledBrick& cb, std::string* out);

/// Decodes an encode_compiled_brick payload. Returns false on any
/// malformed, truncated, or trailing-garbage input.
bool decode_compiled_brick(const std::string& payload, CompiledBrick* out);

}  // namespace limsynth::brick
