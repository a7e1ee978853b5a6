// Fault taxonomy with structural equivalence collapsing.
//
// The fault universe of a netlist contains a pair of faults (value 0 and
// value 1) on every gate output (stem) and every gate input pin (branch).
// Equivalent faults — indistinguishable by any test — are merged into
// classes via union-find using the standard rules (e.g. AND input sa0 ≡
// output sa0; single-fanout branch ≡ stem), and one representative per
// class is simulated. Coverage is reported over collapsed classes, matching
// the accounting of commercial fault simulators like the FlexTest runs in
// the paper.
//
// Every fault additionally carries a FaultModel — the on-line-testing fault
// classes the paper targets — that decides WHEN the site is forced:
//
//  * kStuckAt:      permanently forced (the manufacturing model).
//  * kTransition:   gross-delay; detected by a pattern *pair* where the
//                   launch pattern sets the line to the pre-transition value
//                   and the capture pattern is a stuck-at test for the
//                   post-transition value (stuck_value = the captured,
//                   faulty value; stuck_value 0 == slow-to-rise).
//  * kTransientSEU: a single-event upset; the force is active for exactly
//                   one pattern (or cycle) per kSeuWindow-long window, at a
//                   position drawn from the fault's own deterministic
//                   golden-ratio hash stream.
//  * kIntermittent: duty-cycled; whole kIntermittentBurst-long bursts are
//                   active when the fault's hash stream selects them (1 in
//                   kIntermittentPeriod bursts on average).
//
// Activation depends only on the fault's identity and the GLOBAL pattern /
// cycle index — never on lane position, batch, thread, or engine — which is
// what keeps grading bitwise deterministic for every thread count and lane
// width (see fault_active / fault_active_word).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"

namespace sbst::fault {

/// When a fault's force is active during grading (see the header comment).
/// The numeric values are serialized (FaultUniverse images, store keys);
/// append only.
enum class FaultModel : std::uint8_t {
  kStuckAt = 0,
  kTransition = 1,
  kTransientSEU = 2,
  kIntermittent = 3,
};
inline constexpr std::size_t kFaultModels = 4;

/// "stuck-at", "transition", "transient", or "intermittent" (the CLI names).
const char* fault_model_name(FaultModel model);

/// Parses a model name (accepts "seu" as an alias for "transient"); returns
/// false and leaves `out` untouched on an unknown name.
bool parse_fault_model(const std::string& name, FaultModel& out);

struct Fault {
  netlist::Site site;
  /// The forced value. For kTransition this is the captured (faulty) value:
  /// 0 == slow-to-rise, 1 == slow-to-fall.
  bool stuck_value = false;
  FaultModel model = FaultModel::kStuckAt;

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// Renders "g123(And).out/sa1", ".../STR", ".../seu0", ".../int1" — the
/// model picks the suffix family — for reports. parse_fault_name inverts it.
std::string fault_name(const netlist::Netlist& nl, const Fault& f);

/// Parses a fault_name() rendering back into a Fault. Returns false (and
/// leaves `out` untouched) on malformed text, a gate/pin that does not
/// exist in `nl`, or a gate kind that does not match.
bool parse_fault_name(const netlist::Netlist& nl, const std::string& name,
                      Fault& out);

// ---- per-model activation streams ------------------------------------------
// Shared by every grading engine. All constants are powers of two dividing
// 64 so one 64-lane word spans a whole number of windows/bursts.

/// Window length of the transient-SEU model: one active pattern/cycle per
/// window.
inline constexpr unsigned kSeuWindow = 16;
/// Burst length of the intermittent model: activation is decided (and
/// applied) for whole bursts.
inline constexpr unsigned kIntermittentBurst = 16;
/// One in kIntermittentPeriod bursts is active (25% duty cycle).
inline constexpr unsigned kIntermittentPeriod = 4;

///// Seed of a fault's private activation stream: a splitmix64 hash of the
/// fault's full identity, so equal faults always share a stream and distinct
/// faults (site, polarity, or model differing) get independent ones.
std::uint64_t fault_stream_key(const Fault& f);

/// Whether a fault with stream key `key` is active at global pattern/cycle
/// index `t`. kStuckAt (and kTransition, which has its own pair semantics)
/// are always-on.
bool fault_active(std::uint64_t key, FaultModel model, std::uint64_t t);

///// The 64 activation bits for indices [block*64, block*64 + 64): bit i ==
/// fault_active(key, model, block*64 + i). Costs 4 hashes per word.
std::uint64_t fault_active_word(std::uint64_t key, FaultModel model,
                                std::uint64_t block);

class FaultUniverse {
 public:
  /// Enumerates and collapses the universe of `nl` under `model`. The
  /// structural equivalence rules are value-based, so every model shares
  /// the stuck-at collapse; the model only tags the representatives (for
  /// kTransition, representative i is the transition fault whose captured
  /// value is the stuck-at representative's stuck value).
  explicit FaultUniverse(const netlist::Netlist& nl,
                         FaultModel model = FaultModel::kStuckAt);

  const netlist::Netlist& netlist() const { return *nl_; }

  /// The model every representative carries.
  FaultModel model() const { return model_; }

  /// One representative fault per equivalence class.
  const std::vector<Fault>& collapsed() const { return representatives_; }

  /// Total faults before collapsing (for reporting).
  std::size_t uncollapsed_count() const { return uncollapsed_count_; }

  /// Number of equivalence classes (== collapsed().size()).
  std::size_t size() const { return representatives_.size(); }

  /// Binary-image format version (part of the artifact-store key). v2 added
  /// the fault-model header byte; v1 images are rejected and silently
  /// rebuilt by the artifact-store path.
  static constexpr std::uint32_t kSerialVersion = 2;

  /// Appends a versioned binary image of the collapsed universe to `w`.
  void serialize(common::ByteWriter& w) const;

  /// Rebuilds a collapsed universe from serialize() bytes produced against
  /// a structurally identical `nl`. Returns nullptr on any malformed image
  /// (wrong version, unknown model, truncation, out-of-range sites); the
  /// caller then re-collapses from scratch.
  static std::unique_ptr<FaultUniverse> deserialize(const netlist::Netlist& nl,
                                                    common::ByteReader& r);

 private:
  struct DeserializeTag {};
  FaultUniverse(const netlist::Netlist& nl, DeserializeTag) : nl_(&nl) {}

  const netlist::Netlist* nl_;
  FaultModel model_ = FaultModel::kStuckAt;
  std::vector<Fault> representatives_;
  std::size_t uncollapsed_count_ = 0;
};

/// Result of grading a fault list against a stimulus.
struct CoverageResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::vector<std::uint8_t> detected_flags;  // indexed like the fault list

  double percent() const {
    return total == 0 ? 100.0 : 100.0 * static_cast<double>(detected) /
                                    static_cast<double>(total);
  }

  /// Recomputes `detected` from `detected_flags` — the flags are the single
  /// source of truth; every simulator finishes with this.
  void recount();

  /// Merges another grading of the SAME fault list (e.g. a second routine
  /// exercising the same component).
  void merge(const CoverageResult& other);

  std::vector<Fault> undetected(const std::vector<Fault>& faults) const;
};

/// One fault model's slice of a grading.
struct ModelCoverage {
  std::size_t total = 0;
  std::size_t detected = 0;

  double percent() const {
    return total == 0 ? 100.0 : 100.0 * static_cast<double>(detected) /
                                    static_cast<double>(total);
  }
};

/// Splits a grading over `faults` (possibly mixing models) into per-model
/// coverage slices, indexed by FaultModel value.
std::array<ModelCoverage, kFaultModels> split_by_model(
    const std::vector<Fault>& faults, const CoverageResult& result);

}  // namespace sbst::fault
