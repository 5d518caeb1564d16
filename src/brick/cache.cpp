#include "brick/cache.hpp"

#include <sstream>

#include "brick/library_gen.hpp"
#include "brick/serialize.hpp"
#include "brick/store.hpp"
#include "util/jsonl.hpp"

namespace limsynth::brick {

std::string brick_fingerprint(const BrickSpec& spec,
                              const tech::Process& p) {
  using jsonl::format_g17;
  std::ostringstream os;
  os << "bitcell=" << tech::bitcell_kind_name(spec.bitcell)
     << ";words=" << spec.words << ";bits=" << spec.bits
     << ";stack=" << spec.stack;
  os << ";proc=" << p.name << ";corner=" << tech::corner_name(p.corner);
  const double fields[] = {
      p.vdd,         p.temperature,    p.r_nmos,
      p.r_pmos,      p.c_gate,         p.c_diff,
      p.i_leak,      p.wn_unit,        p.beta,
      p.r_wire,      p.c_wire,         p.sense_swing,
      p.t_control,   p.e_control,      p.defect_density_per_m2,
      p.defect_cluster_alpha,          p.seu_fit_per_mbit,
      p.seu_fit_per_flop,              p.set_fit_per_gate,
      p.c_clknet_base, p.c_clknet_per_bit, p.c_clknet_per_word,
  };
  for (const double f : fields) os << ';' << format_g17(f);
  return os.str();
}

std::shared_ptr<const CompiledBrick> BrickCache::get(
    const BrickSpec& spec, const tech::Process& process) {
  const std::string key = brick_fingerprint(spec, process);
  std::shared_ptr<BrickStore> store;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    store = store_;
  }
  // Disk tier: a warm store turns a cross-process cold start into a
  // deserialize. load() never throws — any corrupt or unreadable entry
  // quarantines inside the store and reads as a miss here.
  if (store) {
    if (std::shared_ptr<const CompiledBrick> loaded = store->load(key)) {
      const std::lock_guard<std::mutex> lock(mu_);
      return map_.emplace(key, std::move(loaded)).first->second;
    }
  }
  // Compile outside the lock: shapes are independent, and a throwing
  // compile must not poison the cache. Two racing workers may both
  // compile the same shape; the first insert wins and the results are
  // identical anyway (pure function of the key).
  auto compiled = std::make_shared<CompiledBrick>();
  compiled->brick = compile_brick(spec, process);
  compiled->estimate = estimate_brick(compiled->brick);
  // The flow takes the brick's cell only as read back from its Liberty
  // text, the form the store keeps, so a cold compile, a memory hit and a
  // disk hit hand out the same decoded object.
  compiled->libcell = libcell_from_liberty(
      libcell_to_liberty(make_brick_libcell(compiled->brick)));
  if (store) store->save(key, *compiled);  // best-effort, never throws
  const std::lock_guard<std::mutex> lock(mu_);
  return map_.emplace(key, std::move(compiled)).first->second;
}

void BrickCache::attach_store(std::shared_ptr<BrickStore> store) {
  const std::lock_guard<std::mutex> lock(mu_);
  store_ = std::move(store);
}

std::shared_ptr<BrickStore> BrickCache::store() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return store_;
}

std::uint64_t BrickCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t BrickCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t BrickCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void BrickCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

BrickCache& BrickCache::global() {
  static BrickCache cache;
  return cache;
}

}  // namespace limsynth::brick
