#include "core/session.hpp"

#include "common/serialize.hpp"
#include "core/inject.hpp"
#include "fault/engine.hpp"

namespace sbst::core {

namespace {

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

// Observe sets and cones are memory-only; their keys carry the CUT and the
// mode because the observe rules depend on both.
store::ArtifactKey mode_key(const char* kind, CutId id, ObserveMode mode,
                            const netlist::Netlist& nl) {
  store::ArtifactKey k;
  k.kind = kind;
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

// ---- program-scoped keys and the good-run codec ---------------------------
// Decoded programs, good runs and good paths are keyed by the full program
// image (plus run parameters), not a hash of it: the memory cache and the
// store both compare key bytes verbatim, so a hash collision cannot alias
// two programs.

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

void serialize_good_run(const GoodRun& run, common::ByteWriter& w) {
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
}

std::shared_ptr<const GoodRun> deserialize_good_run(common::ByteReader& r) {
  if (r.get_u32() != kGoodRunSerialVersion) return nullptr;
  auto out = std::make_shared<GoodRun>();
  sim::ExecStats& s = out->stats;
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
  out->signatures = r.get_vec_u32();
  if (!r.at_end() || out->signatures.size() != kSignatureSlots) return nullptr;
  return out;
}

template <typename T>
void serialize_into(const T& artifact, common::ByteWriter& w) {
  artifact.serialize(w);
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
  return fault::resolve_lanes(options_.lanes, fault::Engine::kEvent);
}

netlist::CompileOptions GradingSession::compile_options() const {
  return fault::resolve_compile_options(options_.netlist_opt);
}

template <typename T>
struct GradingSession::Recipe {
  std::string kind;
  std::vector<std::uint8_t> key;
  std::function<std::shared_ptr<const T>()> build;
  /// Store codec; a recipe without one is memory-only. decode returns null
  /// for a payload it rejects, which counts as store_invalid.
  std::function<std::shared_ptr<const T>(common::ByteReader&)> decode =
      nullptr;
  std::function<void(const T&, common::ByteWriter&)> encode = nullptr;
  std::size_t SessionStats::*builds = nullptr;
  std::size_t SessionStats::*hits = nullptr;
  /// Run build with the session unlocked, so it may call the accessors.
  bool build_unlocked = false;
};

template <typename T>
std::shared_ptr<const T> GradingSession::fetch(
    std::unique_lock<std::mutex>& lock, const Recipe<T>& recipe) {
  std::shared_ptr<const void>& slot = cache_[{recipe.kind, recipe.key}];
  if (slot && options_.cache) {
    if (recipe.hits) ++(stats_.*recipe.hits);
    return std::static_pointer_cast<const T>(slot);
  }
  const bool stored = options_.store && recipe.decode;
  if (stored) {
    ++stats_.store_loads;
    if (auto payload = options_.store->load(recipe.kind, recipe.key)) {
      common::ByteReader r(*payload);
      if (std::shared_ptr<const T> loaded = recipe.decode(r)) {
        ++stats_.store_hits;
        slot = loaded;
        return loaded;
      }
      ++stats_.store_invalid;
    } else {
      ++stats_.store_misses;
    }
  }
  std::shared_ptr<const T> built;
  if (recipe.build_unlocked) {
    lock.unlock();
    built = recipe.build();
    lock.lock();
  } else {
    built = recipe.build();
  }
  if (recipe.builds) ++(stats_.*recipe.builds);
  if (slot && options_.cache) {
    // Lost a race to a concurrent unlocked build; keep the published object
    // so references already handed out stay valid.
    return std::static_pointer_cast<const T>(slot);
  }
  slot = built;
  if (stored) {
    common::ByteWriter w;
    recipe.encode(*built, w);
    if (options_.store->save(recipe.kind, recipe.key, w.bytes())) {
      ++stats_.store_writes;
    }
  }
  return built;
}

const fault::FaultUniverse& GradingSession::universe(CutId id) {
  return universe(id, fault::FaultModel::kStuckAt);
}

const fault::FaultUniverse& GradingSession::universe(CutId id,
                                                     fault::FaultModel model) {
  std::unique_lock<std::mutex> lock(mutex_);
  const netlist::Netlist& nl = model_->component(id).netlist;
  const store::ArtifactKey key = universe_key(nl, model);
  return *fetch<fault::FaultUniverse>(
      lock,
      {.kind = key.kind,
       .key = key.bytes(),
       .build =
           [&] { return std::make_shared<fault::FaultUniverse>(nl, model); },
       // A payload whose embedded model disagrees with the key is corrupt
       // (or hand-edited); it counts as invalid and is rebuilt.
       .decode = [&](common::ByteReader& r)
           -> std::shared_ptr<const fault::FaultUniverse> {
         auto u = fault::FaultUniverse::deserialize(nl, r);
         if (!u || u->model() != model) return nullptr;
         return u;
       },
       .encode = serialize_into<fault::FaultUniverse>,
       .builds = &SessionStats::universe_builds,
       .hits = &SessionStats::universe_hits});
}

const netlist::CompiledNetlist& GradingSession::compiled_locked(
    std::unique_lock<std::mutex>& lock, CutId id,
    const netlist::CompileOptions& opts) {
  const netlist::Netlist& nl = model_->component(id).netlist;
  const store::ArtifactKey key = fault::compiled_store_key(nl, opts, lanes());
  return *fetch<netlist::CompiledNetlist>(
      lock,
      {.kind = key.kind,
       .key = key.bytes(),
       .build =
           [&] { return std::make_shared<netlist::CompiledNetlist>(nl, opts); },
       .decode = [&](common::ByteReader& r)
           -> std::shared_ptr<const netlist::CompiledNetlist> {
         auto cn = netlist::CompiledNetlist::deserialize(nl, r);
         if (!cn || !(cn->options() == opts)) return nullptr;
         return cn;
       },
       .encode = serialize_into<netlist::CompiledNetlist>,
       .builds = &SessionStats::compile_builds,
       .hits = &SessionStats::compile_hits});
}

const netlist::CompiledNetlist& GradingSession::compiled(CutId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  return compiled_locked(lock, id, compile_options());
}

const netlist::CompiledNetlist& GradingSession::compiled(
    CutId id, const netlist::CompileOptions& opts) {
  std::unique_lock<std::mutex> lock(mutex_);
  return compiled_locked(lock, id, opts);
}

const fault::ObserveSet& GradingSession::observe_locked(
    std::unique_lock<std::mutex>& lock, CutId id, ObserveMode mode) {
  const ComponentInfo& info = model_->component(id);
  const store::ArtifactKey key = mode_key("observe", id, mode, info.netlist);
  return *fetch<fault::ObserveSet>(
      lock, {.kind = key.kind,
             .key = key.bytes(),
             .build = [&] {
               return std::make_shared<fault::ObserveSet>(
                   observation_points(info, mode));
             },
             .builds = &SessionStats::observe_builds,
             .hits = &SessionStats::observe_hits});
}

const fault::ObserveSet& GradingSession::observe(CutId id, ObserveMode mode) {
  std::unique_lock<std::mutex> lock(mutex_);
  return observe_locked(lock, id, mode);
}

const std::vector<std::uint8_t>& GradingSession::cone(CutId id,
                                                      ObserveMode mode) {
  std::unique_lock<std::mutex> lock(mutex_);
  const netlist::Netlist& nl = model_->component(id).netlist;
  const store::ArtifactKey key = mode_key("cone", id, mode, nl);
  // The cone derives from the compiled netlist and the observe set; fetch
  // both through the cache so a cone build warms them too. fanin_cone
  // traverses ORIGINAL edges, so the cone is identical for every
  // CompileOptions and the mode alone keys this slot.
  return *fetch<std::vector<std::uint8_t>>(
      lock, {.kind = key.kind,
             .key = key.bytes(),
             .build = [&] {
               const netlist::CompiledNetlist& cn =
                   compiled_locked(lock, id, compile_options());
               const fault::ObserveSet& obs = observe_locked(lock, id, mode);
               return std::make_shared<std::vector<std::uint8_t>>(
                   cn.fanin_cone(obs));
             },
             .builds = &SessionStats::cone_builds,
             .hits = &SessionStats::cone_hits});
}

std::shared_ptr<const isa::DecodedProgram> GradingSession::decoded_locked(
    std::unique_lock<std::mutex>& lock, const isa::Program& image) {
  return fetch<isa::DecodedProgram>(
      lock,
      {.kind = "decoded",
       .key = decoded_key_bytes(image),
       .build = [&] { return std::make_shared<isa::DecodedProgram>(image); },
       .decode = [](common::ByteReader& r)
           -> std::shared_ptr<const isa::DecodedProgram> {
         return isa::DecodedProgram::deserialize(r);
       },
       .encode = serialize_into<isa::DecodedProgram>,
       .builds = &SessionStats::decode_builds,
       .hits = &SessionStats::decode_hits});
}

std::shared_ptr<const isa::DecodedProgram> GradingSession::decoded(
    const isa::Program& image) {
  std::unique_lock<std::mutex> lock(mutex_);
  return decoded_locked(lock, image);
}

const GoodRun& GradingSession::good_run(const TestProgram& program,
                                        const sim::CpuConfig& config) {
  std::unique_lock<std::mutex> lock(mutex_);
  return *fetch<GoodRun>(
      lock, {.kind = "goodrun",
             .key = goodrun_key_bytes(program, config),
             .build = [&] {
               auto run = std::make_shared<GoodRun>();
               sim::Cpu cpu(config);
               cpu.reset();
               cpu.load(program.image, decoded_locked(lock, program.image));
               run->stats = cpu.run(program.entry);
               for (unsigned s = 0; s < kSignatureSlots; ++s) {
                 run->signatures.push_back(
                     cpu.read_word(program.signature_address(s)));
               }
               return run;
             },
             .decode = deserialize_good_run,
             .encode = serialize_good_run,
             .builds = &SessionStats::goodrun_builds,
             .hits = &SessionStats::goodrun_hits});
}

std::shared_ptr<const GoodPathTable> GradingSession::good_path(
    const TestProgram& program, const sim::CpuConfig& config, CutId target) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<std::uint8_t> key = goodrun_key_bytes(program, config);
  common::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(target));
  key.insert(key.end(), w.bytes().begin(), w.bytes().end());
  return fetch<GoodPathTable>(
      lock, {.kind = "goodpath", .key = std::move(key), .build = [&] {
               return std::make_shared<GoodPathTable>(
                   GoodPathTable::trace(*model_, program, config, target));
             }});
}

std::shared_ptr<const DefaultProgram> GradingSession::default_program() {
  std::unique_lock<std::mutex> lock(mutex_);
  return fetch<DefaultProgram>(
      lock, {.kind = "program", .key = {}, .build = [&] {
               auto out = std::make_shared<DefaultProgram>();
               out->builder.add_default_routines(*model_);
               out->program = out->builder.build();
               return out;
             },
             .build_unlocked = true});
}

const fault::PatternSet& GradingSession::patterns(
    CutId id, const std::string& tag,
    const std::function<fault::PatternSet(const netlist::Netlist&)>& build) {
  std::unique_lock<std::mutex> lock(mutex_);
  const netlist::Netlist& nl = model_->component(id).netlist;
  const store::ArtifactKey key = patterns_key(nl, tag);
  return *fetch<fault::PatternSet>(
      lock,
      {.kind = key.kind,
       .key = key.bytes(),
       .build = [&] { return std::make_shared<fault::PatternSet>(build(nl)); },
       .decode = [&](common::ByteReader& r)
           -> std::shared_ptr<const fault::PatternSet> {
         return fault::PatternSet::deserialize(nl, r);
       },
       .encode = serialize_into<fault::PatternSet>,
       .builds = &SessionStats::patterns_builds,
       .hits = &SessionStats::patterns_hits,
       // ATPG builders typically fetch compiled().
       .build_unlocked = true});
}

SessionStats GradingSession::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sbst::core
