#include "brick/library_gen.hpp"

namespace limsynth::brick {

liberty::LibCell make_brick_libcell(const Brick& b) {
  const BrickEstimate nominal = estimate_brick(b);

  liberty::LibCell cell;
  cell.name = b.spec.name();
  cell.is_macro = true;
  cell.sequential = true;
  cell.clock_pin = "CK";
  cell.area = nominal.bank_area;
  cell.width = nominal.bank_width;
  cell.height = nominal.bank_height;
  cell.leakage = nominal.leakage;
  // Active-cycle energy excluding the output-load-dependent part, which the
  // CK->DO arc energy LUT carries per switching output bit.
  cell.clock_energy =
      nominal.read_energy -
      b.switching_bits() *
          (kReferenceLoad + b.out_buf_drive * b.process.c_unit()) *
          b.process.vdd * b.process.vdd;

  // 1R1W pin set (paper Fig. 3): decoded read/write wordlines come from
  // synthesized decoders outside the brick.
  cell.inputs.push_back({"CK", nominal.input_cap_clk, true});
  cell.inputs.push_back({"RWL", nominal.input_cap_dwl, false});
  cell.inputs.push_back({"WWL", nominal.input_cap_dwl, false});
  cell.inputs.push_back({"WDATA", nominal.input_cap_data, false});
  if (b.is_cam()) cell.inputs.push_back({"SDATA", nominal.input_cap_data, false});
  cell.outputs.push_back({"DO", 0.0, false});
  if (b.is_cam()) cell.outputs.push_back({"MATCH", 0.0, false});

  const auto slews = liberty::default_slew_axis();
  const auto loads = liberty::default_load_axis();
  const double v2 = b.process.vdd * b.process.vdd;

  liberty::TimingArc arc;
  arc.from = "CK";
  arc.to = "DO";
  arc.delay = liberty::Lut2D::from_function(
      slews, loads, [&](double slew, double load) {
        // Clock slew adds a fraction of itself at the control input.
        return estimate_brick(b, load).read_delay + 0.2 * slew;
      });
  arc.out_slew = liberty::Lut2D::from_function(
      slews, loads, [&](double /*slew*/, double load) {
        return 1.4 * (b.process.r_unit() / b.out_buf_drive) * load + 8e-12;
      });
  arc.energy = liberty::Lut2D::from_function(
      slews, loads,
      [&](double /*slew*/, double load) { return 0.5 * load * v2; });
  cell.arcs.push_back(std::move(arc));

  if (b.is_cam()) {
    liberty::TimingArc match_arc;
    match_arc.from = "CK";
    match_arc.to = "MATCH";
    match_arc.delay = liberty::Lut2D::from_function(
        slews, loads, [&](double slew, double load) {
          (void)load;
          return estimate_brick(b).match_delay + 0.2 * slew;
        });
    match_arc.out_slew = liberty::Lut2D::from_function(
        slews, loads, [&](double /*slew*/, double load) {
          return 1.4 * (b.process.r_unit() / b.ml_detect_drive) * load + 8e-12;
        });
    match_arc.energy = liberty::Lut2D::from_function(
        slews, loads,
        [&](double /*slew*/, double load) { return 0.5 * load * v2; });
    cell.arcs.push_back(std::move(match_arc));
  }

  for (const char* pin : {"RWL", "WWL", "WDATA"})
    cell.constraints.push_back({pin, nominal.setup, nominal.hold});
  if (b.is_cam())
    cell.constraints.push_back({"SDATA", nominal.setup, nominal.hold});
  return cell;
}

}  // namespace limsynth::brick
