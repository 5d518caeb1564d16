#include "brick/serialize.hpp"

#include <cstring>

#include "liberty/writer.hpp"
#include "util/error.hpp"

namespace limsynth::brick {

namespace {

// --- primitive writers --------------------------------------------------

void put_u8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void put_u32(std::string* out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void put_u64(std::string* out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void put_i32(std::string* out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

void put_str(std::string* out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

// --- bounds-checked reader ----------------------------------------------

class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  bool u8(std::uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool i32(std::int32_t* v) {
    std::uint32_t u = 0;
    if (!u32(&u)) return false;
    *v = static_cast<std::int32_t>(u);
    return true;
  }
  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool str(std::string* v) {
    std::uint32_t n = 0;
    if (!u32(&n) || pos_ + n > data_.size()) return false;
    v->assign(data_, pos_, n);
    pos_ += n;
    return true;
  }
  /// Element count for a variable-length section. A corrupt count must
  /// not drive a giant allocation: every element still present in the
  /// buffer costs at least `min_bytes`.
  bool count(std::uint32_t* n, std::size_t min_bytes) {
    if (!u32(n)) return false;
    return static_cast<std::size_t>(*n) * min_bytes <= data_.size() - pos_;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
};

// --- composite codecs ---------------------------------------------------

void put_rect(std::string* out, const layout::Rect& r) {
  put_f64(out, r.x0);
  put_f64(out, r.y0);
  put_f64(out, r.x1);
  put_f64(out, r.y1);
}

bool get_rect(Reader* in, layout::Rect* r) {
  return in->f64(&r->x0) && in->f64(&r->y0) && in->f64(&r->x1) &&
         in->f64(&r->y1);
}

void put_process(std::string* out, const tech::Process& p) {
  put_str(out, p.name);
  put_u8(out, static_cast<std::uint8_t>(p.corner));
  const double fields[] = {
      p.vdd,           p.temperature,   p.r_nmos,
      p.r_pmos,        p.c_gate,        p.c_diff,
      p.i_leak,        p.wn_unit,       p.beta,
      p.r_wire,        p.c_wire,        p.sense_swing,
      p.t_control,     p.e_control,     p.defect_density_per_m2,
      p.defect_cluster_alpha,           p.seu_fit_per_mbit,
      p.seu_fit_per_flop,               p.set_fit_per_gate,
      p.c_clknet_base, p.c_clknet_per_bit, p.c_clknet_per_word,
  };
  for (const double f : fields) put_f64(out, f);
}

bool get_process(Reader* in, tech::Process* p) {
  std::uint8_t corner = 0;
  if (!in->str(&p->name) || !in->u8(&corner)) return false;
  if (corner > static_cast<std::uint8_t>(tech::Corner::kSlow)) return false;
  p->corner = static_cast<tech::Corner>(corner);
  double* fields[] = {
      &p->vdd,           &p->temperature,   &p->r_nmos,
      &p->r_pmos,        &p->c_gate,        &p->c_diff,
      &p->i_leak,        &p->wn_unit,       &p->beta,
      &p->r_wire,        &p->c_wire,        &p->sense_swing,
      &p->t_control,     &p->e_control,     &p->defect_density_per_m2,
      &p->defect_cluster_alpha,             &p->seu_fit_per_mbit,
      &p->seu_fit_per_flop,                 &p->set_fit_per_gate,
      &p->c_clknet_base, &p->c_clknet_per_bit, &p->c_clknet_per_word,
  };
  for (double* f : fields)
    if (!in->f64(f)) return false;
  return true;
}

void put_bitcell(std::string* out, const tech::Bitcell& c) {
  put_u8(out, static_cast<std::uint8_t>(c.kind));
  put_str(out, c.name);
  const double fields[] = {c.width,     c.height,      c.c_bitline,
                           c.c_wordline, c.c_matchline, c.c_searchline,
                           c.r_read,    c.r_write,     c.r_match,
                           c.leakage};
  for (const double f : fields) put_f64(out, f);
  put_i32(out, c.transistors);
  put_u8(out, c.has_read_port ? 1 : 0);
}

bool get_bitcell(Reader* in, tech::Bitcell* c) {
  std::uint8_t kind = 0;
  if (!in->u8(&kind) ||
      kind > static_cast<std::uint8_t>(tech::BitcellKind::kEdram1T1C))
    return false;
  c->kind = static_cast<tech::BitcellKind>(kind);
  if (!in->str(&c->name)) return false;
  double* fields[] = {&c->width,      &c->height,      &c->c_bitline,
                      &c->c_wordline, &c->c_matchline, &c->c_searchline,
                      &c->r_read,     &c->r_write,     &c->r_match,
                      &c->leakage};
  for (double* f : fields)
    if (!in->f64(f)) return false;
  std::uint8_t read_port = 0;
  if (!in->i32(&c->transistors) || !in->u8(&read_port)) return false;
  c->has_read_port = read_port != 0;
  return true;
}

void put_layout(std::string* out, const layout::BrickLayout& l) {
  put_rect(out, l.outline);
  put_u32(out, static_cast<std::uint32_t>(l.regions.size()));
  for (const layout::Region& r : l.regions) {
    put_str(out, r.name);
    put_rect(out, r.rect);
    put_u8(out, static_cast<std::uint8_t>(r.pattern));
  }
  put_rect(out, l.array);
  put_f64(out, l.area);
  put_f64(out, l.array_area);
  put_f64(out, l.blockage_fraction);
}

bool get_layout(Reader* in, layout::BrickLayout* l) {
  if (!get_rect(in, &l->outline)) return false;
  std::uint32_t n = 0;
  if (!in->count(&n, 4 + 32 + 1)) return false;
  l->regions.assign(n, layout::Region{});
  for (layout::Region& r : l->regions) {
    std::uint8_t pattern = 0;
    if (!in->str(&r.name) || !get_rect(in, &r.rect) || !in->u8(&pattern) ||
        pattern > static_cast<std::uint8_t>(tech::PatternClass::kFill))
      return false;
    r.pattern = static_cast<tech::PatternClass>(pattern);
  }
  return get_rect(in, &l->array) && in->f64(&l->area) &&
         in->f64(&l->array_area) && in->f64(&l->blockage_fraction);
}

void put_brick(std::string* out, const Brick& b) {
  put_u8(out, static_cast<std::uint8_t>(b.spec.bitcell));
  put_i32(out, b.spec.words);
  put_i32(out, b.spec.bits);
  put_i32(out, b.spec.stack);
  put_process(out, b.process);
  put_bitcell(out, b.cell);
  const double fields[] = {
      b.ctrl_drive1,   b.ctrl_drive2, b.wl_nand_drive, b.wl_inv_drive,
      b.sense_drive,   b.out_buf_drive, b.precharge_drive,
      b.wl_length,     b.wl_cap,      b.bl_length,     b.bl_cap,
      b.wl_en_cap,     b.arbl_seg_len, b.arbl_seg_cap, b.c_clock_net,
      b.out_rcv_drive, b.ml_cap,      b.sl_cap,        b.ml_detect_drive,
      b.sl_drive,
  };
  for (const double f : fields) put_f64(out, f);
  put_layout(out, b.layout);
}

bool get_brick(Reader* in, Brick* b) {
  std::uint8_t kind = 0;
  if (!in->u8(&kind) ||
      kind > static_cast<std::uint8_t>(tech::BitcellKind::kEdram1T1C))
    return false;
  b->spec.bitcell = static_cast<tech::BitcellKind>(kind);
  if (!in->i32(&b->spec.words) || !in->i32(&b->spec.bits) ||
      !in->i32(&b->spec.stack))
    return false;
  if (!get_process(in, &b->process) || !get_bitcell(in, &b->cell))
    return false;
  double* fields[] = {
      &b->ctrl_drive1,   &b->ctrl_drive2, &b->wl_nand_drive,
      &b->wl_inv_drive,  &b->sense_drive, &b->out_buf_drive,
      &b->precharge_drive, &b->wl_length, &b->wl_cap,
      &b->bl_length,     &b->bl_cap,      &b->wl_en_cap,
      &b->arbl_seg_len,  &b->arbl_seg_cap, &b->c_clock_net,
      &b->out_rcv_drive, &b->ml_cap,      &b->sl_cap,
      &b->ml_detect_drive, &b->sl_drive,
  };
  for (double* f : fields)
    if (!in->f64(f)) return false;
  return get_layout(in, &b->layout);
}

void put_estimate(std::string* out, const BrickEstimate& e) {
  const double fields[] = {
      e.t_control,   e.t_wordline,  e.t_bitline,    e.t_sense,
      e.t_output,    e.read_delay,  e.write_delay,  e.match_delay,
      e.read_energy, e.write_energy, e.match_energy,
      e.energy_per_extra_brick,     e.setup,        e.hold,
      e.min_cycle,   e.leakage,     e.clock_energy_idle,
      e.input_cap_clk, e.input_cap_dwl, e.input_cap_data,
      e.retention_time, e.refresh_power,
      e.bank_area,   e.bank_width,  e.bank_height,
  };
  for (const double f : fields) put_f64(out, f);
}

bool get_estimate(Reader* in, BrickEstimate* e) {
  double* fields[] = {
      &e->t_control,   &e->t_wordline,  &e->t_bitline,    &e->t_sense,
      &e->t_output,    &e->read_delay,  &e->write_delay,  &e->match_delay,
      &e->read_energy, &e->write_energy, &e->match_energy,
      &e->energy_per_extra_brick,       &e->setup,        &e->hold,
      &e->min_cycle,   &e->leakage,     &e->clock_energy_idle,
      &e->input_cap_clk, &e->input_cap_dwl, &e->input_cap_data,
      &e->retention_time, &e->refresh_power,
      &e->bank_area,   &e->bank_width,  &e->bank_height,
  };
  for (double* f : fields)
    if (!in->f64(f)) return false;
  return true;
}

}  // namespace

std::string libcell_to_liberty(const liberty::LibCell& cell) {
  liberty::Library lib(cell.name);
  lib.add(cell);
  return liberty::to_liberty_string(lib);
}

liberty::LibCell libcell_from_liberty(const std::string& text) {
  const liberty::Library lib = liberty::parse_liberty(text);
  if (lib.cells().size() != 1)
    LIMS_FAIL(ErrorCode::kInvalidConfig,
              "brick library " << lib.name() << " holds "
                               << lib.cells().size() << " cells, not 1");
  return lib.cells().front();
}

void encode_compiled_brick(const CompiledBrick& cb, std::string* out) {
  put_brick(out, cb.brick);
  put_estimate(out, cb.estimate);
  put_str(out, libcell_to_liberty(cb.libcell));
}

bool decode_compiled_brick(const std::string& payload, CompiledBrick* out) {
  Reader in(payload);
  std::string liberty_text;
  if (!get_brick(&in, &out->brick) || !get_estimate(&in, &out->estimate) ||
      !in.str(&liberty_text))
    return false;
  try {
    out->libcell = libcell_from_liberty(liberty_text);
  } catch (const Error&) {
    return false;
  }
  return in.done();  // trailing garbage = corrupt
}

}  // namespace limsynth::brick
