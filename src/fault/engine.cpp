#include "fault/engine.hpp"

#include "common/serialize.hpp"
#include "fault/sim_detail.hpp"
#include "store/artifact_store.hpp"

namespace sbst::fault {

store::ArtifactKey compiled_store_key(const netlist::Netlist& nl,
                                      const netlist::CompileOptions& opts,
                                      unsigned lanes) {
  store::ArtifactKey key;
  key.kind = "compiled";
  key.version = netlist::CompiledNetlist::kSerialVersion;
  key.lanes = static_cast<std::uint8_t>(lanes);
  key.opts = static_cast<std::uint8_t>((opts.const_prop ? 1u : 0) |
                                       (opts.fuse_inverters ? 2u : 0) |
                                       (opts.dead_sweep ? 4u : 0));
  key.content = nl.content_hash();
  return key;
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kReference: return "reference";
    case Engine::kEvent: return "event";
  }
  return "?";
}

unsigned resolve_lanes(unsigned requested, Engine engine) {
  if (engine == Engine::kReference) return 1;
  return requested == 0 || requested == 4 ? 4 : 1;
}

netlist::CompileOptions resolve_compile_options(int netlist_opt) {
  return netlist_opt != 0 ? netlist::CompileOptions::all()
                          : netlist::CompileOptions{};
}

EngineContext::EngineContext(Engine engine, const netlist::Netlist& nl,
                             std::vector<netlist::NetId> observe,
                             const netlist::CompiledNetlist* compiled,
                             const std::uint8_t* reach, unsigned lanes,
                             int netlist_opt, store::ArtifactStore* store)
    : engine_(engine),
      nl_(&nl),
      observe_(detail::resolve_observe(nl, observe)) {
  lanes_ = resolve_lanes(lanes, engine_);
  nl.topo_order();  // warm the shared cache before workers touch it
  if (engine_ == Engine::kReference) return;
  if (compiled) {
    compiled_ = compiled;
  } else {
    const netlist::CompileOptions opts = resolve_compile_options(netlist_opt);
    if (store) {
      const store::ArtifactKey key = compiled_store_key(nl, opts, lanes_);
      if (auto payload = store->load(key)) {
        common::ByteReader r(*payload);
        auto cn = netlist::CompiledNetlist::deserialize(nl, r);
        if (cn && cn->options() == opts) owned_compiled_ = std::move(cn);
      }
      if (!owned_compiled_) {
        owned_compiled_ = std::make_unique<netlist::CompiledNetlist>(nl, opts);
        common::ByteWriter w;
        owned_compiled_->serialize(w);
        store->save(key, w.bytes());
      }
    } else {
      owned_compiled_ = std::make_unique<netlist::CompiledNetlist>(nl, opts);
    }
    compiled_ = owned_compiled_.get();
  }
  if (reach) {
    reach_ = reach;
  } else {
    reach_store_ = compiled_->fanin_cone(observe_);
    reach_ = reach_store_.data();
  }
}

}  // namespace sbst::fault
