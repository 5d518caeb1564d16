#include "liberty/library.hpp"

#include "util/error.hpp"
#include "util/units.hpp"

namespace limsynth::liberty {

const PinModel* LibCell::find_input(const std::string& pin) const {
  for (const auto& p : inputs)
    if (p.name == pin) return &p;
  return nullptr;
}

const PinModel* LibCell::find_output(const std::string& pin) const {
  for (const auto& p : outputs)
    if (p.name == pin) return &p;
  return nullptr;
}

const TimingArc* LibCell::find_arc(const std::string& from,
                                   const std::string& to) const {
  for (const auto& a : arcs)
    if (a.from == from && a.to == to) return &a;
  return nullptr;
}

const Constraint* LibCell::find_constraint(const std::string& pin) const {
  for (const auto& c : constraints)
    if (c.pin == pin) return &c;
  return nullptr;
}

void Library::add(LibCell cell) {
  LIMS_CHECK_MSG(index_.find(cell.name) == index_.end(),
                 "duplicate cell " << cell.name << " in library " << name_);
  index_[cell.name] = cells_.size();
  cells_.push_back(std::move(cell));
}

const LibCell& Library::cell(const std::string& name) const {
  const LibCell* c = find(name);
  LIMS_CHECK_MSG(c != nullptr, "no cell " << name << " in library " << name_);
  return *c;
}

const LibCell* Library::find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &cells_[it->second];
}

std::size_t Library::index_of(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? npos : it->second;
}

std::vector<double> default_slew_axis() {
  using limsynth::units::ps;
  return {5 * ps, 20 * ps, 50 * ps, 120 * ps, 300 * ps};
}

std::vector<double> default_load_axis() {
  using limsynth::units::fF;
  return {0.5 * fF, 2 * fF, 6 * fF, 15 * fF, 40 * fF, 100 * fF};
}

}  // namespace limsynth::liberty
