#include "core/session.hpp"

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "core/inject.hpp"
#include "fault/engine.hpp"

namespace sbst::core {

namespace {

// In-memory scan accelerator for the program-level caches; every probe
// still compares the full key. (Bit-compatible with common::fnv1a_bytes
// folded over little-endian u64 values.)
std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
  return common::fnv1a_mix_u64(h, v);
}

std::uint64_t hash_image(const isa::Program& image) {
  std::uint64_t h = common::kFnvOffsetBasis;
  h = fnv64(h, image.base);
  h = fnv64(h, image.words.size());
  for (const std::uint32_t w : image.words) h = fnv64(h, w);
  return h;
}

std::uint64_t hash_cache_config(std::uint64_t h, const sim::CacheConfig& c) {
  h = fnv64(h, c.enabled);
  h = fnv64(h, c.line_words);
  h = fnv64(h, c.lines);
  return fnv64(h, c.miss_penalty);
}

std::uint64_t hash_cpu_config(std::uint64_t h, const sim::CpuConfig& c) {
  h = fnv64(h, c.forwarding);
  h = fnv64(h, c.mem_access_cycles);
  h = fnv64(h, c.mult_cycles);
  h = fnv64(h, c.div_cycles);
  h = fnv64(h, c.branch_taken_penalty);
  h = fnv64(h, c.mem_bytes);
  h = hash_cache_config(h, c.icache);
  return hash_cache_config(h, c.dcache);
}

bool cache_config_equal(const sim::CacheConfig& a, const sim::CacheConfig& b) {
  return a.enabled == b.enabled && a.line_words == b.line_words &&
         a.lines == b.lines && a.miss_penalty == b.miss_penalty;
}

bool cpu_config_equal(const sim::CpuConfig& a, const sim::CpuConfig& b) {
  return a.forwarding == b.forwarding &&
         a.mem_access_cycles == b.mem_access_cycles &&
         a.mult_cycles == b.mult_cycles && a.div_cycles == b.div_cycles &&
         a.branch_taken_penalty == b.branch_taken_penalty &&
         a.mem_bytes == b.mem_bytes &&
         cache_config_equal(a.icache, b.icache) &&
         cache_config_equal(a.dcache, b.dcache);
}

// ---- canonical artifact keys ----------------------------------------------
// One constructor per kind, zeroing every irrelevant axis (see ArtifactKey).
// Compiled netlists use fault::compiled_store_key so the session and
// EngineContext agree on the key.

store::ArtifactKey universe_key(const netlist::Netlist& nl,
                                fault::FaultModel model) {
  store::ArtifactKey k;
  k.kind = "universe";
  k.version = fault::FaultUniverse::kSerialVersion;
  k.mode = static_cast<std::uint8_t>(model);
  k.content = nl.content_hash();
  return k;
}

store::ArtifactKey observe_key(CutId id, ObserveMode mode,
                               const netlist::Netlist& nl) {
  store::ArtifactKey k;
  k.kind = "observe";
  k.cut = static_cast<std::uint32_t>(id);
  k.mode = static_cast<std::uint8_t>(mode);
  k.content = nl.content_hash();
  return k;
}

store::ArtifactKey cone_key(CutId id, ObserveMode mode,
                            const netlist::Netlist& nl) {
  store::ArtifactKey k;
  k.kind = "cone";
  k.cut = static_cast<std::uint32_t>(id);
  k.mode = static_cast<std::uint8_t>(mode);
  k.content = nl.content_hash();
  return k;
}

store::ArtifactKey patterns_key(const netlist::Netlist& nl,
                                const std::string& tag) {
  store::ArtifactKey k;
  k.kind = "patterns";
  k.version = fault::PatternSet::kSerialVersion;
  k.content = nl.content_hash();
  k.tag = tag;
  return k;
}

// ---- program-scoped store keys and the good-run codec ---------------------
// Decoded programs and good runs are keyed by the full program image (plus
// run parameters), not a hash of it: the store compares key bytes verbatim,
// so carrying the real key material rules out collision aliasing outright.

std::vector<std::uint8_t> decoded_key_bytes(const isa::Program& image) {
  common::ByteWriter w;
  w.put_u32(isa::DecodedProgram::kSerialVersion);
  w.put_u32(image.base);
  w.put_vec_u32(image.words);
  return w.take();
}

constexpr std::uint32_t kGoodRunSerialVersion = 1;

void put_cache_config(common::ByteWriter& w, const sim::CacheConfig& c) {
  w.put_bool(c.enabled);
  w.put_u64(c.line_words);
  w.put_u64(c.lines);
  w.put_u64(c.miss_penalty);
}

std::vector<std::uint8_t> goodrun_key_bytes(const TestProgram& program,
                                            const sim::CpuConfig& config) {
  common::ByteWriter w;
  w.put_u32(kGoodRunSerialVersion);
  w.put_u32(program.image.base);
  w.put_u32(program.entry);
  w.put_u32(program.signature_base);
  w.put_vec_u32(program.image.words);
  w.put_bool(config.forwarding);
  w.put_u64(config.mem_access_cycles);
  w.put_u64(config.mult_cycles);
  w.put_u64(config.div_cycles);
  w.put_u64(config.branch_taken_penalty);
  w.put_u64(config.mem_bytes);
  put_cache_config(w, config.icache);
  put_cache_config(w, config.dcache);
  return w.take();
}

std::vector<std::uint8_t> serialize_good_run(const GoodRun& run) {
  common::ByteWriter w;
  w.put_u32(kGoodRunSerialVersion);
  const sim::ExecStats& s = run.stats;
  w.put_u64(s.instructions);
  w.put_u64(s.cpu_cycles);
  w.put_u64(s.pipeline_stall_cycles);
  w.put_u64(s.memory_stall_cycles);
  w.put_u64(s.loads);
  w.put_u64(s.stores);
  w.put_u64(s.icache_misses);
  w.put_u64(s.dcache_misses);
  w.put_u64(s.icache_accesses);
  w.put_u64(s.dcache_accesses);
  w.put_bool(s.halted);
  w.put_vec_u32(run.signatures);
  return w.take();
}

bool deserialize_good_run(common::ByteReader& r, GoodRun& out) {
  if (r.get_u32() != kGoodRunSerialVersion) return false;
  sim::ExecStats& s = out.stats;
  s.instructions = r.get_u64();
  s.cpu_cycles = r.get_u64();
  s.pipeline_stall_cycles = r.get_u64();
  s.memory_stall_cycles = r.get_u64();
  s.loads = r.get_u64();
  s.stores = r.get_u64();
  s.icache_misses = r.get_u64();
  s.dcache_misses = r.get_u64();
  s.icache_accesses = r.get_u64();
  s.dcache_accesses = r.get_u64();
  s.halted = r.get_bool();
  out.signatures = r.get_vec_u32();
  return r.at_end() && out.signatures.size() == kSignatureSlots;
}

}  // namespace

fault::ObserveSet observation_points(const ComponentInfo& info,
                                     ObserveMode mode) {
  const netlist::Netlist& nl = info.netlist;
  if (mode == ObserveMode::kFullNetlist) return nl.output_nets();
  fault::ObserveSet obs;
  auto add_port = [&](const char* name) {
    const netlist::Bus& bus = nl.output_port(name);
    obs.insert(obs.end(), bus.begin(), bus.end());
  };
  switch (info.id) {
    case CutId::kAlu:
      // cout/ovf are not MIPS-visible flags; result and the branch zero
      // condition are.
      add_port("result");
      add_port("zero");
      break;
    case CutId::kDivider:
      add_port("quotient");
      add_port("remainder");
      break;
    case CutId::kMemCtrl:
      add_port("rdata");      // load data -> register -> MISR
      add_port("mem_wdata");  // store data reaches memory, later reloaded
      add_port("byte_en");
      if (mode == ObserveMode::kArchitecturalPlusAddress) {
        add_port("mem_addr");  // A-VC
      }
      break;
    default:
      return nl.output_nets();
  }
  return obs;
}

GradingSession::GradingSession(const ProcessorModel& model,
                               const SessionOptions& options)
    : model_(&model),
      options_(options),
      pool_(fault::resolve_thread_count(options.num_threads)) {}

unsigned GradingSession::lanes() const {
  const unsigned lanes =
      options_.lanes == 0 ? fault::default_lanes() : options_.lanes;
  return lanes == 4 ? 4 : 1;
}

netlist::CompileOptions GradingSession::compile_options() const {
  const bool opt = options_.netlist_opt < 0 ? fault::default_netlist_opt()
                                            : options_.netlist_opt != 0;
  return opt ? netlist::CompileOptions::all() : netlist::CompileOptions{};
}

std::optional<std::vector<std::uint8_t>> GradingSession::probe_store(
    const store::ArtifactKey& key) {
  return probe_store(key.kind, key.bytes());
}

std::optional<std::vector<std::uint8_t>> GradingSession::probe_store(
    const std::string& kind, const std::vector<std::uint8_t>& key_bytes) {
  if (!options_.store) return std::nullopt;
  ++stats_.store_loads;
  auto payload = options_.store->load(kind, key_bytes);
  if (!payload) ++stats_.store_misses;
  return payload;
}

void GradingSession::write_store(const store::ArtifactKey& key,
                                 const std::vector<std::uint8_t>& payload) {
  write_store(key.kind, key.bytes(), payload);
}

void GradingSession::write_store(const std::string& kind,
                                 const std::vector<std::uint8_t>& key_bytes,
                                 const std::vector<std::uint8_t>& payload) {
  if (!options_.store) return;
  if (options_.store->save(kind, key_bytes, payload)) ++stats_.store_writes;
}

const fault::FaultUniverse& GradingSession::universe(CutId id) {
  return universe(id, fault::FaultModel::kStuckAt);
}

const fault::FaultUniverse& GradingSession::universe(CutId id,
                                                     fault::FaultModel model) {
  std::lock_guard<std::mutex> lock(mutex_);
  const netlist::Netlist& nl = model_->component(id).netlist;
  const store::ArtifactKey key = universe_key(nl, model);
  ArtifactSlot& slot = artifacts_[key];
  if (slot.universe && options_.cache) {
    ++stats_.universe_hits;
    return *slot.universe;
  }
  if (auto payload = probe_store(key)) {
    common::ByteReader r(*payload);
    auto u = fault::FaultUniverse::deserialize(nl, r);
    // A payload whose embedded model disagrees with the key is corrupt (or
    // hand-edited); treat it like any other invalid entry and rebuild.
    if (u && u->model() == model) {
      ++stats_.store_hits;
      slot.universe = std::move(u);
      return *slot.universe;
    }
    ++stats_.store_invalid;
  }
  ++stats_.universe_builds;
  slot.universe = std::make_unique<fault::FaultUniverse>(nl, model);
  if (options_.store) {
    common::ByteWriter w;
    slot.universe->serialize(w);
    write_store(key, w.bytes());
  }
  return *slot.universe;
}

const netlist::CompiledNetlist& GradingSession::compiled_locked(
    CutId id, const netlist::CompileOptions& opts) {
  const netlist::Netlist& nl = model_->component(id).netlist;
  const store::ArtifactKey key = fault::compiled_store_key(nl, opts, lanes());
  ArtifactSlot& slot = artifacts_[key];
  if (slot.compiled && options_.cache) {
    ++stats_.compile_hits;
    return *slot.compiled;
  }
  if (auto payload = probe_store(key)) {
    common::ByteReader r(*payload);
    auto cn = netlist::CompiledNetlist::deserialize(nl, r);
    if (cn && cn->options() == opts) {
      ++stats_.store_hits;
      slot.compiled = std::move(cn);
      return *slot.compiled;
    }
    ++stats_.store_invalid;
  }
  ++stats_.compile_builds;
  slot.compiled = std::make_unique<netlist::CompiledNetlist>(nl, opts);
  if (options_.store) {
    common::ByteWriter w;
    slot.compiled->serialize(w);
    write_store(key, w.bytes());
  }
  return *slot.compiled;
}

const netlist::CompiledNetlist& GradingSession::compiled(CutId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return compiled_locked(id, compile_options());
}

const netlist::CompiledNetlist& GradingSession::compiled(
    CutId id, const netlist::CompileOptions& opts) {
  std::lock_guard<std::mutex> lock(mutex_);
  return compiled_locked(id, opts);
}

const fault::ObserveSet& GradingSession::observe_locked(CutId id,
                                                        ObserveMode mode) {
  const ComponentInfo& info = model_->component(id);
  ArtifactSlot& slot = artifacts_[observe_key(id, mode, info.netlist)];
  if (slot.observe && options_.cache) {
    ++stats_.observe_hits;
    return *slot.observe;
  }
  ++stats_.observe_builds;
  slot.observe =
      std::make_unique<fault::ObserveSet>(observation_points(info, mode));
  return *slot.observe;
}

const fault::ObserveSet& GradingSession::observe(CutId id, ObserveMode mode) {
  std::lock_guard<std::mutex> lock(mutex_);
  return observe_locked(id, mode);
}

const std::vector<std::uint8_t>& GradingSession::cone(CutId id,
                                                      ObserveMode mode) {
  std::lock_guard<std::mutex> lock(mutex_);
  const netlist::Netlist& nl = model_->component(id).netlist;
  ArtifactSlot& slot = artifacts_[cone_key(id, mode, nl)];
  if (slot.cone && options_.cache) {
    ++stats_.cone_hits;
    return *slot.cone;
  }
  // The cone derives from the compiled netlist and the observe set; fetch
  // both through the cache so a cone build warms them too. fanin_cone
  // traverses ORIGINAL edges, so the cone is identical for every
  // CompileOptions and the mode alone keys this slot.
  const netlist::CompiledNetlist& cn = compiled_locked(id, compile_options());
  const fault::ObserveSet& obs = observe_locked(id, mode);
  ++stats_.cone_builds;
  slot.cone = std::make_unique<std::vector<std::uint8_t>>(cn.fanin_cone(obs));
  return *slot.cone;
}

std::shared_ptr<const isa::DecodedProgram> GradingSession::decoded_locked(
    const isa::Program& image) {
  // Store probe / predecode / write-back for one image: shared by the cold
  // path and the cache-off rebuild path, so both honor the store contract.
  auto make_decoded = [&]() -> std::shared_ptr<const isa::DecodedProgram> {
    if (auto payload = probe_store("decoded", decoded_key_bytes(image))) {
      common::ByteReader r(*payload);
      if (auto dp = isa::DecodedProgram::deserialize(r)) {
        ++stats_.store_hits;
        return std::shared_ptr<const isa::DecodedProgram>(std::move(dp));
      }
      ++stats_.store_invalid;
    }
    ++stats_.decode_builds;
    auto dp = std::make_shared<const isa::DecodedProgram>(image);
    if (options_.store) {
      common::ByteWriter w;
      dp->serialize(w);
      write_store("decoded", decoded_key_bytes(image), w.bytes());
    }
    return dp;
  };

  const std::uint64_t h = hash_image(image);
  for (DecodedEntry& e : decoded_cache_) {
    if (e.hash != h || e.base != image.base || e.words != image.words) {
      continue;
    }
    if (options_.cache) {
      ++stats_.decode_hits;
      return e.decoded;
    }
    e.decoded = make_decoded();
    return e.decoded;
  }
  DecodedEntry e;
  e.hash = h;
  e.base = image.base;
  e.words = image.words;
  e.decoded = make_decoded();
  decoded_cache_.push_back(std::move(e));
  return decoded_cache_.back().decoded;
}

std::shared_ptr<const isa::DecodedProgram> GradingSession::decoded(
    const isa::Program& image) {
  std::lock_guard<std::mutex> lock(mutex_);
  return decoded_locked(image);
}

GradingSession::RunKey::RunKey(const TestProgram& program,
                               const sim::CpuConfig& cfg)
    : base(program.image.base),
      entry(program.entry),
      signature_base(program.signature_base),
      words(program.image.words),
      config(cfg) {
  hash = hash_image(program.image);
  hash = fnv64(hash, entry);
  hash = fnv64(hash, signature_base);
  hash = hash_cpu_config(hash, config);
}

bool GradingSession::RunKey::operator==(const RunKey& other) const {
  return hash == other.hash && base == other.base && entry == other.entry &&
         signature_base == other.signature_base &&
         cpu_config_equal(config, other.config) && words == other.words;
}

const GoodRun& GradingSession::good_run(const TestProgram& program,
                                        const sim::CpuConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  RunKey key(program, config);
  GoodRunEntry* found = nullptr;
  for (GoodRunEntry& e : goodrun_cache_) {
    if (e.key == key) {
      found = &e;
      break;
    }
  }
  if (found && options_.cache) {
    ++stats_.goodrun_hits;
    return found->run;
  }
  GoodRun run;
  bool from_store = false;
  if (auto payload = probe_store("goodrun", goodrun_key_bytes(program, config))) {
    common::ByteReader r(*payload);
    if (deserialize_good_run(r, run)) {
      ++stats_.store_hits;
      from_store = true;
    } else {
      ++stats_.store_invalid;
      run = GoodRun{};
    }
  }
  if (!from_store) {
    ++stats_.goodrun_builds;
    sim::Cpu cpu(config);
    cpu.reset();
    cpu.load(program.image, decoded_locked(program.image));
    run.stats = cpu.run(program.entry);
    for (unsigned s = 0; s < kSignatureSlots; ++s) {
      run.signatures.push_back(cpu.read_word(program.signature_address(s)));
    }
    if (options_.store) {
      write_store("goodrun", goodrun_key_bytes(program, config),
                  serialize_good_run(run));
    }
  }
  if (found) {
    found->run = std::move(run);
    return found->run;
  }
  goodrun_cache_.push_back({std::move(key), std::move(run)});
  return goodrun_cache_.back().run;
}

std::shared_ptr<const GoodPathTable> GradingSession::good_path(
    const TestProgram& program, const sim::CpuConfig& config, CutId target) {
  std::lock_guard<std::mutex> lock(mutex_);
  RunKey key(program, config);
  GoodPathEntry* found = nullptr;
  for (GoodPathEntry& e : goodpath_cache_) {
    if (e.target == target && e.key == key) {
      found = &e;
      break;
    }
  }
  if (found && options_.cache) return found->table;
  auto table = std::make_shared<const GoodPathTable>(
      GoodPathTable::trace(*model_, program, config, target));
  if (found) {
    found->table = table;
  } else {
    goodpath_cache_.push_back({std::move(key), target, table});
  }
  return table;
}

const fault::PatternSet& GradingSession::patterns(
    CutId id, const std::string& tag,
    const std::function<fault::PatternSet(const netlist::Netlist&)>& build) {
  const netlist::Netlist& nl = model_->component(id).netlist;
  const store::ArtifactKey key = patterns_key(nl, tag);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ArtifactSlot& slot = artifacts_[key];
    if (slot.patterns && options_.cache) {
      ++stats_.patterns_hits;
      return *slot.patterns;
    }
    if (auto payload = probe_store(key)) {
      common::ByteReader r(*payload);
      if (auto ps = fault::PatternSet::deserialize(nl, r)) {
        ++stats_.store_hits;
        slot.patterns = std::move(ps);
        return *slot.patterns;
      }
      ++stats_.store_invalid;
    }
  }
  // The builder runs with the session unlocked so it can use the other
  // accessors (ATPG builders typically fetch compiled()).
  auto built = std::make_unique<fault::PatternSet>(build(nl));
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.patterns_builds;
  ArtifactSlot& slot = artifacts_[key];
  if (slot.patterns && options_.cache) {
    // Lost a concurrent build race; keep the published object so references
    // already handed out stay valid.
    return *slot.patterns;
  }
  slot.patterns = std::move(built);
  if (options_.store) {
    common::ByteWriter w;
    slot.patterns->serialize(w);
    write_store(key, w.bytes());
  }
  return *slot.patterns;
}

SessionStats GradingSession::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sbst::core
