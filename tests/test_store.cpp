// Persistent artifact store: file-level robustness (truncation, bit flips,
// wrong format version, wrong content hash all read as misses and trigger a
// clean rebuild), artifact codec round-trips, and the store differential
// guarantee — evaluate_program returns bitwise-identical results with the
// store off, cold, or warm, for every engine / lane width / thread count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "core/evaluate.hpp"
#include "store/artifact_store.hpp"

namespace fs = std::filesystem;

namespace sbst::core {
namespace {

// Fresh per-test store directory under the gtest temp root, removed on
// destruction so repeated runs never see each other's entries.
struct TempStoreDir {
  fs::path path;
  explicit TempStoreDir(const std::string& tag) {
    path = fs::path(::testing::TempDir()) /
           (std::string("sbst-store-") + tag);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempStoreDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::vector<std::uint8_t> read_all(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_all(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// The single entry file a one-save store holds.
fs::path only_entry(const fs::path& dir) {
  fs::path found;
  std::size_t count = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) {
      found = e.path();
      ++count;
    }
  }
  EXPECT_EQ(count, 1u);
  return found;
}

const std::vector<std::uint8_t> kKey = {1, 2, 3, 4, 5};
const std::vector<std::uint8_t> kPayload = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};

// ---- store file-level robustness ------------------------------------------

TEST(ArtifactStore, RoundTripAndStats) {
  TempStoreDir dir("roundtrip");
  store::ArtifactStore s(dir.str());
  EXPECT_TRUE(s.save("universe", kKey, kPayload));
  const auto got = s.load("universe", kKey);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, kPayload);
  const store::StoreStats st = s.stats();
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.loads, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.invalid, 0u);
}

TEST(ArtifactStore, AbsentKeyIsAMiss) {
  TempStoreDir dir("miss");
  store::ArtifactStore s(dir.str());
  EXPECT_FALSE(s.load("universe", kKey).has_value());
  EXPECT_EQ(s.stats().misses, 1u);
  EXPECT_EQ(s.stats().invalid, 0u);
}

TEST(ArtifactStore, KindsAndKeysSelectDistinctEntries) {
  TempStoreDir dir("distinct");
  store::ArtifactStore s(dir.str());
  const std::vector<std::uint8_t> other_key = {1, 2, 3, 4, 6};
  const std::vector<std::uint8_t> other_payload = {42};
  EXPECT_TRUE(s.save("universe", kKey, kPayload));
  EXPECT_TRUE(s.save("universe", other_key, other_payload));
  EXPECT_TRUE(s.save("compiled", kKey, other_payload));
  EXPECT_EQ(*s.load("universe", kKey), kPayload);
  EXPECT_EQ(*s.load("universe", other_key), other_payload);
  EXPECT_EQ(*s.load("compiled", kKey), other_payload);
}

TEST(ArtifactStore, TruncatedEntriesAreRejected) {
  TempStoreDir dir("truncate");
  store::ArtifactStore s(dir.str());
  ASSERT_TRUE(s.save("universe", kKey, kPayload));
  const fs::path entry = only_entry(dir.path);
  const std::vector<std::uint8_t> full = read_all(entry);
  ASSERT_GT(full.size(), 8u);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, full.size() / 2, full.size() - 1}) {
    write_all(entry, std::vector<std::uint8_t>(full.begin(),
                                               full.begin() + keep));
    EXPECT_FALSE(s.load("universe", kKey).has_value())
        << "truncated to " << keep << " of " << full.size() << " bytes";
  }
  // An overlong file (trailing garbage) is rejected too.
  std::vector<std::uint8_t> padded = full;
  padded.push_back(0);
  write_all(entry, padded);
  EXPECT_FALSE(s.load("universe", kKey).has_value());
  EXPECT_GT(s.stats().invalid, 0u);
  EXPECT_EQ(s.stats().hits, 0u);
}

TEST(ArtifactStore, EveryFlippedByteIsRejected) {
  TempStoreDir dir("bitflip");
  store::ArtifactStore s(dir.str());
  ASSERT_TRUE(s.save("universe", kKey, kPayload));
  const fs::path entry = only_entry(dir.path);
  const std::vector<std::uint8_t> full = read_all(entry);
  // Flipping ANY single byte — magic, version, kind, sizes, key bytes,
  // either hash, or payload — must read as a miss, never as wrong data.
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::vector<std::uint8_t> bad = full;
    bad[i] ^= 0x40;
    write_all(entry, bad);
    EXPECT_FALSE(s.load("universe", kKey).has_value())
        << "byte " << i << " of " << full.size();
  }
  write_all(entry, full);
  EXPECT_TRUE(s.load("universe", kKey).has_value());
}

TEST(ArtifactStore, WrongFormatVersionIsRejected) {
  TempStoreDir dir("version");
  store::ArtifactStore s(dir.str());
  ASSERT_TRUE(s.save("universe", kKey, kPayload));
  const fs::path entry = only_entry(dir.path);
  std::vector<std::uint8_t> bytes = read_all(entry);
  // Header layout: magic u64 at 0, format version u32 at 8.
  bytes[8] = static_cast<std::uint8_t>(store::ArtifactStore::kFormatVersion +
                                       1);
  write_all(entry, bytes);
  EXPECT_FALSE(s.load("universe", kKey).has_value());
  EXPECT_GT(s.stats().invalid, 0u);
}

TEST(ArtifactStore, WrongContentHashIsRejected) {
  TempStoreDir dir("hash");
  store::ArtifactStore s(dir.str());
  ASSERT_TRUE(s.save("universe", kKey, kPayload));
  const fs::path entry = only_entry(dir.path);
  std::vector<std::uint8_t> bytes = read_all(entry);
  // payload_hash is the last header field, just before the key bytes:
  // magic(8) + version(4) + kind(8+len) + key_size(8) + payload_size(8) +
  // key_hash(8) + payload_hash(8).
  const std::size_t off = 8 + 4 + (8 + std::strlen("universe")) + 8 + 8 + 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[off + i] ^= 0xff;
  write_all(entry, bytes);
  EXPECT_FALSE(s.load("universe", kKey).has_value());
  EXPECT_GT(s.stats().invalid, 0u);
}

TEST(ArtifactStore, SaveOverwritesACorruptEntry) {
  TempStoreDir dir("overwrite");
  store::ArtifactStore s(dir.str());
  ASSERT_TRUE(s.save("universe", kKey, kPayload));
  const fs::path entry = only_entry(dir.path);
  write_all(entry, {0xde, 0xad});
  EXPECT_FALSE(s.load("universe", kKey).has_value());
  EXPECT_TRUE(s.save("universe", kKey, kPayload));
  EXPECT_EQ(*s.load("universe", kKey), kPayload);
}

// ---- write-failure paths --------------------------------------------------
// The container runs as root, where permission bits are bypassed, so the
// failure injections use filesystem-shape tricks instead of chmod: a regular
// file where the entry DIRECTORY should be kills create_directories/fopen,
// and a non-empty directory at the entry FILE path kills the rename.

// The exact path a save("<kind>", key, ...) writes: the layout is part of
// the store's documented contract (header comment of artifact_store.hpp).
fs::path entry_path_for(const fs::path& dir, const std::string& kind,
                        const std::vector<std::uint8_t>& key) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    common::fnv1a_bytes(key.data(), key.size())));
  return dir /
         ("v" + std::to_string(store::ArtifactStore::kFormatVersion)) /
         (kind + "-" + hex + ".bin");
}

TEST(ArtifactStore, UnwritableEntryDirCountsWriteFailureAndRecovers) {
  TempStoreDir dir("wfail-dir");
  const fs::path vdir =
      dir.path / ("v" + std::to_string(store::ArtifactStore::kFormatVersion));
  write_all(vdir, {0x00});  // a FILE squats on the entry-directory path
  store::ArtifactStore s(dir.str());
  EXPECT_FALSE(s.save("universe", kKey, kPayload));
  EXPECT_EQ(s.stats().write_failures, 1u);
  EXPECT_EQ(s.stats().writes, 0u);
  // Loads through the broken dir are plain misses, never crashes.
  EXPECT_FALSE(s.load("universe", kKey).has_value());
  // Once the obstruction is gone the same store object works again.
  fs::remove(vdir);
  EXPECT_TRUE(s.save("universe", kKey, kPayload));
  EXPECT_EQ(*s.load("universe", kKey), kPayload);
}

TEST(ArtifactStore, RenameFailureCountsWriteFailureAndCleansTmp) {
  TempStoreDir dir("wfail-rename");
  const fs::path entry = entry_path_for(dir.path, "universe", kKey);
  // A non-empty directory at the entry path: the tmp write succeeds but the
  // atomic rename over it cannot.
  fs::create_directories(entry / "occupied");
  store::ArtifactStore s(dir.str());
  EXPECT_FALSE(s.save("universe", kKey, kPayload));
  EXPECT_EQ(s.stats().write_failures, 1u);
  // The failed save removed its own temporary file.
  std::size_t tmp_files = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir.path)) {
    if (e.is_regular_file() &&
        e.path().string().find(".tmp") != std::string::npos) {
      ++tmp_files;
    }
  }
  EXPECT_EQ(tmp_files, 0u);
  EXPECT_FALSE(s.load("universe", kKey).has_value());
}

// ---- size budget / LRU eviction -------------------------------------------

TEST(ArtifactStore, EvictsLeastRecentlyUsedWhenOverBudget) {
  TempStoreDir dir("evict-lru");
  store::ArtifactStore s(dir.str());
  const std::vector<std::uint8_t> key_a = {1};
  const std::vector<std::uint8_t> key_b = {2};
  const std::vector<std::uint8_t> key_c = {3};
  ASSERT_TRUE(s.save("universe", key_a, kPayload));
  ASSERT_TRUE(s.save("universe", key_b, kPayload));
  const fs::path entry_a = entry_path_for(dir.path, "universe", key_a);
  const fs::path entry_b = entry_path_for(dir.path, "universe", key_b);
  const std::uint64_t entry_size = fs::file_size(entry_a);
  ASSERT_EQ(entry_size, fs::file_size(entry_b));

  // Backdate both entries, A older than B, then touch A through a budgeted
  // load hit — the hit must refresh A's recency or eviction is
  // least-recently-WRITTEN, not least-recently-used.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(entry_a, now - std::chrono::hours(2));
  fs::last_write_time(entry_b, now - std::chrono::hours(1));
  s.set_budget(2 * entry_size);
  ASSERT_TRUE(s.load("universe", key_a).has_value());

  // Budget holds two entries; saving C must evict exactly one, and it must
  // be B (A was just used, C is the entry being written).
  ASSERT_TRUE(s.save("universe", key_c, kPayload));
  EXPECT_TRUE(s.load("universe", key_a).has_value());
  EXPECT_FALSE(s.load("universe", key_b).has_value());
  EXPECT_TRUE(s.load("universe", key_c).has_value());
  const store::StoreStats st = s.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.evicted_bytes, entry_size);
  EXPECT_EQ(s.budget(), 2 * entry_size);
}

TEST(ArtifactStore, EvictionSweepsStaleTmpFilesOnly) {
  TempStoreDir dir("evict-tmp");
  store::ArtifactStore s(dir.str());
  ASSERT_TRUE(s.save("universe", kKey, kPayload));
  const fs::path vdir =
      dir.path / ("v" + std::to_string(store::ArtifactStore::kFormatVersion));
  // A crashed writer's leftover (old) and a live writer's tmp (fresh).
  const fs::path stale = vdir / "universe-0000000000000000.bin.tmp12345";
  const fs::path fresh = vdir / "universe-1111111111111111.bin.tmp67890";
  write_all(stale, {1, 2, 3});
  write_all(fresh, {4, 5, 6});
  fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                 std::chrono::hours(1));

  s.set_budget(1 << 20);  // comfortably over the total: no entry evictions
  ASSERT_TRUE(s.save("compiled", kKey, kPayload));
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  const store::StoreStats st = s.stats();
  EXPECT_EQ(st.stale_tmp_removed, 1u);
  EXPECT_EQ(st.evictions, 0u);
  // Entries are untouched by the sweep.
  EXPECT_TRUE(s.load("universe", kKey).has_value());
  EXPECT_TRUE(s.load("compiled", kKey).has_value());
}

// ---- directory resolution -------------------------------------------------

TEST(ArtifactStore, ResolveDirHonorsExplicitPathAutoAndFailsSoft) {
  EXPECT_EQ(store::ArtifactStore::resolve_dir("/tmp/explicit"),
            "/tmp/explicit");

  const char* xdg = std::getenv("XDG_CACHE_HOME");
  const char* home = std::getenv("HOME");
  const std::string saved_xdg = xdg ? xdg : "";
  const std::string saved_home = home ? home : "";
  const bool had_xdg = xdg != nullptr;
  const bool had_home = home != nullptr;

  setenv("XDG_CACHE_HOME", "/xdg-cache", 1);
  EXPECT_EQ(store::ArtifactStore::resolve_dir("auto"), "/xdg-cache/sbst");
  unsetenv("XDG_CACHE_HOME");
  setenv("HOME", "/home/u", 1);
  EXPECT_EQ(store::ArtifactStore::default_dir(), "/home/u/.cache/sbst");
  // Both unset: no sane cache root exists. The contract is an EMPTY result
  // (callers run storeless with a warning), not a .sbst-store dropped into
  // the current directory.
  unsetenv("HOME");
  EXPECT_TRUE(store::ArtifactStore::default_dir().empty());
  EXPECT_TRUE(store::ArtifactStore::resolve_dir("auto").empty());
  EXPECT_TRUE(store::ArtifactStore::resolve_dir("").empty());

  if (had_xdg) {
    setenv("XDG_CACHE_HOME", saved_xdg.c_str(), 1);
  } else {
    unsetenv("XDG_CACHE_HOME");
  }
  if (had_home) {
    setenv("HOME", saved_home.c_str(), 1);
  } else {
    unsetenv("HOME");
  }
}

// ---- artifact codec round-trips -------------------------------------------

const netlist::Netlist& alu_netlist() {
  static ProcessorModel model;
  return model.component(CutId::kAlu).netlist;
}

std::vector<std::uint8_t> universe_image(const fault::FaultUniverse& u) {
  common::ByteWriter w;
  u.serialize(w);
  return w.bytes();
}

TEST(ArtifactCodec, FaultUniverseRoundTrip) {
  const netlist::Netlist& nl = alu_netlist();
  const fault::FaultUniverse original(nl);
  const std::vector<std::uint8_t> image = universe_image(original);

  common::ByteReader r(image.data(), image.size());
  const auto copy = fault::FaultUniverse::deserialize(nl, r);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->uncollapsed_count(), original.uncollapsed_count());
  ASSERT_EQ(copy->size(), original.size());
  EXPECT_EQ(universe_image(*copy), image);
}

TEST(ArtifactCodec, FaultUniverseRejectsMalformedImages) {
  const netlist::Netlist& nl = alu_netlist();
  const fault::FaultUniverse original(nl);
  const std::vector<std::uint8_t> image = universe_image(original);

  {  // wrong codec version
    std::vector<std::uint8_t> bad = image;
    bad[0] ^= 0xff;
    common::ByteReader r(bad.data(), bad.size());
    EXPECT_EQ(fault::FaultUniverse::deserialize(nl, r), nullptr);
  }
  {  // truncated
    common::ByteReader r(image.data(), image.size() / 2);
    EXPECT_EQ(fault::FaultUniverse::deserialize(nl, r), nullptr);
  }
  {  // out-of-range gate index in the first fault record
    common::ByteWriter w;
    w.put_u32(fault::FaultUniverse::kSerialVersion);
    w.put_u64(1);
    w.put_u64(1);
    w.put_u32(static_cast<std::uint32_t>(nl.size()));  // one past the end
    w.put_u8(0);
    w.put_bool(false);
    const std::vector<std::uint8_t> bad = w.bytes();
    common::ByteReader r(bad.data(), bad.size());
    EXPECT_EQ(fault::FaultUniverse::deserialize(nl, r), nullptr);
  }
  {  // empty
    common::ByteReader r(image.data(), 0);
    EXPECT_EQ(fault::FaultUniverse::deserialize(nl, r), nullptr);
  }
}

TEST(ArtifactCodec, CompiledNetlistRoundTripAcrossOptions) {
  const netlist::Netlist& nl = alu_netlist();
  for (const netlist::CompileOptions opts :
       {netlist::CompileOptions{}, netlist::CompileOptions::all()}) {
    const netlist::CompiledNetlist original(nl, opts);
    common::ByteWriter w;
    original.serialize(w);
    const std::vector<std::uint8_t> image = w.bytes();

    common::ByteReader r(image.data(), image.size());
    const auto copy = netlist::CompiledNetlist::deserialize(nl, r);
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->size(), original.size());
    EXPECT_EQ(copy->live_gates(), original.live_gates());
    EXPECT_EQ(copy->levels(), original.levels());
    common::ByteWriter w2;
    copy->serialize(w2);
    EXPECT_EQ(w2.bytes(), image);

    common::ByteReader half(image.data(), image.size() / 2);
    EXPECT_EQ(netlist::CompiledNetlist::deserialize(nl, half), nullptr);
  }
}

TEST(ArtifactCodec, DecodedProgramRoundTrip) {
  TestProgramBuilder builder;
  builder.add(make_alu_routine());
  const TestProgram program = builder.build();
  const isa::DecodedProgram original(program.image);

  common::ByteWriter w;
  original.serialize(w);
  const std::vector<std::uint8_t> image = w.bytes();

  common::ByteReader r(image.data(), image.size());
  const auto copy = isa::DecodedProgram::deserialize(r);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->base(), original.base());
  EXPECT_EQ(copy->size(), original.size());
  EXPECT_EQ(copy->end_address(), original.end_address());
  common::ByteWriter w2;
  copy->serialize(w2);
  EXPECT_EQ(w2.bytes(), image);

  common::ByteReader half(image.data(), image.size() / 2);
  EXPECT_EQ(isa::DecodedProgram::deserialize(half), nullptr);
}

TEST(ArtifactCodec, PatternSetRoundTrip) {
  const netlist::Netlist& nl = alu_netlist();
  fault::PatternSet original(nl);
  Rng rng(7);
  for (int i = 0; i < 70; ++i) original.add_random(rng);  // 2 lane blocks

  common::ByteWriter w;
  original.serialize(w);
  const std::vector<std::uint8_t> image = w.bytes();

  common::ByteReader r(image.data(), image.size());
  const auto copy = fault::PatternSet::deserialize(nl, r);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->size(), original.size());
  ASSERT_EQ(copy->block_count(), original.block_count());
  for (std::size_t b = 0; b < original.block_count(); ++b) {
    EXPECT_EQ(copy->block(b), original.block(b)) << "block " << b;
    EXPECT_EQ(copy->valid_lanes(b), original.valid_lanes(b)) << "block " << b;
  }

  common::ByteReader half(image.data(), image.size() / 2);
  EXPECT_EQ(fault::PatternSet::deserialize(nl, half), nullptr);
}

// ---- session-level store behavior -----------------------------------------

struct Fixture {
  ProcessorModel model;
  TestProgramBuilder builder;
  TestProgram program;
  Fixture() {
    builder.add(make_alu_routine());
    builder.add(make_memctrl_routine());
    program = builder.build();
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

EvalOptions small_options() {
  EvalOptions options;
  options.regfile_cycle_cap = 32;
  options.pipeline_cycle_cap = 256;
  return options;
}

void expect_same_exec(const sim::ExecStats& a, const sim::ExecStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cpu_cycles, b.cpu_cycles) << what;
  EXPECT_EQ(a.pipeline_stall_cycles, b.pipeline_stall_cycles) << what;
  EXPECT_EQ(a.memory_stall_cycles, b.memory_stall_cycles) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  EXPECT_EQ(a.stores, b.stores) << what;
  EXPECT_EQ(a.halted, b.halted) << what;
}

void expect_same_evaluation(const ProgramEvaluation& a,
                            const ProgramEvaluation& b,
                            const std::string& what) {
  ASSERT_EQ(a.cuts.size(), b.cuts.size()) << what;
  for (std::size_t i = 0; i < a.cuts.size(); ++i) {
    EXPECT_EQ(a.cuts[i].id, b.cuts[i].id) << what;
    EXPECT_EQ(a.cuts[i].collapsed_faults, b.cuts[i].collapsed_faults) << what;
    EXPECT_EQ(a.cuts[i].coverage.detected, b.cuts[i].coverage.detected)
        << what;
    EXPECT_EQ(a.cuts[i].coverage.detected_flags,
              b.cuts[i].coverage.detected_flags)
        << what << " cut " << static_cast<int>(a.cuts[i].id);
  }
  EXPECT_EQ(a.signatures, b.signatures) << what;
  expect_same_exec(a.total, b.total, what + " total");
}

SessionOptions store_session_options(
    std::shared_ptr<store::ArtifactStore> store, fault::Engine engine,
    unsigned lanes, unsigned threads) {
  SessionOptions sopts;
  sopts.num_threads = threads;
  sopts.lanes = lanes;
  sopts.store = std::move(store);
  (void)engine;  // engine rides in EvalOptions; lanes/threads in the session
  return sopts;
}

TEST(StoreSession, ColdAndWarmAreBitwiseIdenticalToStoreOff) {
  const Fixture& f = fixture();

  EvalOptions base_options = small_options();
  GradingSession base_session(f.model, {.num_threads = 1});
  const ProgramEvaluation baseline =
      evaluate_program(base_session, f.builder, f.program, base_options);
  EXPECT_GT(baseline.overall_fc(), 0.0);

  const fault::Engine engine = fault::Engine::kEvent;
  for (unsigned lanes : {1u, 4u}) {
    TempStoreDir dir(std::string("diff-") + fault::engine_name(engine) +
                     "-" + std::to_string(lanes));
    for (unsigned threads : {1u, 2u}) {
      const std::string what = std::string("engine=") +
                               fault::engine_name(engine) + " lanes=" +
                               std::to_string(lanes) + " threads=" +
                               std::to_string(threads);
      EvalOptions options = small_options();
      options.sim.engine = engine;

      // Cold pass: first thread count populates the store; warm pass
      // reloads every artifact. Both must match the store-off baseline.
      auto store = std::make_shared<store::ArtifactStore>(dir.str());
      options.sim.store = store.get();
      GradingSession session(
          f.model, store_session_options(store, engine, lanes, threads));
      const ProgramEvaluation ev =
          evaluate_program(session, f.builder, f.program, options);
      expect_same_evaluation(baseline, ev, what);

      const SessionStats stats = session.stats();
      EXPECT_EQ(stats.store_loads,
                stats.store_hits + stats.store_misses + stats.store_invalid)
          << what;
      if (threads == 1u) {
        // First run against this directory: everything missed and was
        // written back.
        EXPECT_GT(stats.store_misses, 0u) << what;
        EXPECT_GT(stats.store_writes, 0u) << what;
      } else {
        // Warm run: the store-served artifacts are never rebuilt.
        EXPECT_GT(stats.store_hits, 0u) << what;
        EXPECT_EQ(stats.universe_builds, 0u) << what;
        EXPECT_EQ(stats.decode_builds, 0u) << what;
        EXPECT_EQ(stats.goodrun_builds, 0u) << what;
      }
    }
  }
}

TEST(StoreSession, CorruptStoreFallsBackToCleanRebuild) {
  const Fixture& f = fixture();
  TempStoreDir dir("corrupt");
  const EvalOptions options = small_options();

  GradingSession base_session(f.model, {.num_threads = 2});
  const ProgramEvaluation baseline =
      evaluate_program(base_session, f.builder, f.program, options);

  {  // populate
    auto store = std::make_shared<store::ArtifactStore>(dir.str());
    GradingSession session(f.model,
                           {.num_threads = 2, .store = store});
    evaluate_program(session, f.builder, f.program, options);
    EXPECT_GT(session.stats().store_writes, 0u);
  }

  // Vandalize every entry: truncate even files, flip a byte in odd ones.
  std::size_t n = 0, corrupted = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir.path)) {
    if (!e.is_regular_file()) continue;
    std::vector<std::uint8_t> bytes = read_all(e.path());
    if (n % 2 == 0) {
      bytes.resize(bytes.size() / 2);
    } else {
      bytes[bytes.size() / 2] ^= 0x01;
    }
    write_all(e.path(), bytes);
    ++n;
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  auto store = std::make_shared<store::ArtifactStore>(dir.str());
  GradingSession session(f.model, {.num_threads = 2, .store = store});
  const ProgramEvaluation ev =
      evaluate_program(session, f.builder, f.program, options);
  expect_same_evaluation(baseline, ev, "after corruption");
  // Every probe fell back to a rebuild; file-level damage shows up in the
  // store's own counters, not as a crash or wrong data.
  EXPECT_EQ(session.stats().store_hits, 0u);
  EXPECT_GT(session.stats().universe_builds, 0u);
  EXPECT_GT(store->stats().invalid, 0u);
  // The rebuilds re-wrote the damaged entries: a third session runs warm.
  auto store2 = std::make_shared<store::ArtifactStore>(dir.str());
  GradingSession warm(f.model, {.num_threads = 2, .store = store2});
  const ProgramEvaluation ev2 =
      evaluate_program(warm, f.builder, f.program, options);
  expect_same_evaluation(baseline, ev2, "after rewrite");
  EXPECT_GT(warm.stats().store_hits, 0u);
  EXPECT_EQ(warm.stats().universe_builds, 0u);
}

TEST(StoreSession, CodecRejectedPayloadCountsInvalidAndRebuilds) {
  const Fixture& f = fixture();
  TempStoreDir dir("badpayload");
  auto store = std::make_shared<store::ArtifactStore>(dir.str());

  // A well-formed store entry whose payload the FaultUniverse codec
  // rejects, planted under the exact key the session will probe.
  const netlist::Netlist& nl = f.model.component(CutId::kAlu).netlist;
  store::ArtifactKey key;
  key.kind = "universe";
  key.version = fault::FaultUniverse::kSerialVersion;
  key.content = nl.content_hash();
  ASSERT_TRUE(store->save(key, {0xff, 0xff, 0xff, 0xff}));

  GradingSession session(f.model, {.num_threads = 1, .store = store});
  const fault::FaultUniverse& u = session.universe(CutId::kAlu);
  EXPECT_GT(u.size(), 0u);
  EXPECT_EQ(session.stats().store_invalid, 1u);
  EXPECT_EQ(session.stats().universe_builds, 1u);
  // The rebuild overwrote the bogus entry, so a fresh session hits.
  auto store2 = std::make_shared<store::ArtifactStore>(dir.str());
  GradingSession session2(f.model, {.num_threads = 1, .store = store2});
  const fault::FaultUniverse& u2 = session2.universe(CutId::kAlu);
  EXPECT_EQ(u2.size(), u.size());
  EXPECT_EQ(session2.stats().store_hits, 1u);
  EXPECT_EQ(session2.stats().universe_builds, 0u);
}

TEST(StoreSession, PatternsAccessorCachesAndPersists) {
  const Fixture& f = fixture();
  TempStoreDir dir("patterns");
  const auto build = [](const netlist::Netlist& nl) {
    fault::PatternSet ps(nl);
    Rng rng(3);
    for (int i = 0; i < 10; ++i) ps.add_random(rng);
    return ps;
  };

  auto store = std::make_shared<store::ArtifactStore>(dir.str());
  GradingSession session(f.model, {.num_threads = 1, .store = store});
  const fault::PatternSet& a = session.patterns(CutId::kAlu, "t", build);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(session.stats().patterns_builds, 1u);
  // Same tag: session-cache hit. New tag: distinct artifact.
  session.patterns(CutId::kAlu, "t", build);
  EXPECT_EQ(session.stats().patterns_hits, 1u);
  session.patterns(CutId::kAlu, "t2", build);
  EXPECT_EQ(session.stats().patterns_builds, 2u);

  auto store2 = std::make_shared<store::ArtifactStore>(dir.str());
  GradingSession warm(f.model, {.num_threads = 1, .store = store2});
  const fault::PatternSet& b = warm.patterns(CutId::kAlu, "t", build);
  ASSERT_EQ(b.block_count(), a.block_count());
  for (std::size_t blk = 0; blk < a.block_count(); ++blk) {
    EXPECT_EQ(b.block(blk), a.block(blk));
  }
  EXPECT_EQ(warm.stats().patterns_builds, 0u);
  EXPECT_EQ(warm.stats().store_hits, 1u);
}

}  // namespace
}  // namespace sbst::core
