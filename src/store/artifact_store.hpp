// Persistent content-addressed artifact store.
//
// Grading a processor component repeatedly pays the same fixed costs before
// the first fault is ever simulated: collapsing the fault universe, levelizing
// and compiling the netlist, predecoding the self-test routine, and running
// the fault-free reference execution. For the paper's on-line periodic-test
// setting — the same test programs graded against the same components across
// many invocations — those artifacts are pure functions of (netlist contents,
// build options). The store persists their binary images on disk keyed by
// content, so a warm process skips straight to fault grading.
//
// Layout: one file per artifact under `<dir>/v1/`, named
// `<kind>-<fnv1a(key) as 16 hex digits>.bin`. Each file carries a fixed
// header (magic, store format version, kind, sizes, FNV-1a hashes of key and
// payload), the full key bytes verbatim, then the payload. Loads compare the
// stored key byte-for-byte against the requested key — a hash collision reads
// as a miss, never as aliased data.
//
// Robustness contract: load() returns nullopt on ANY validation failure —
// missing file, short read, bad magic, version skew, kind/key/size mismatch,
// payload hash mismatch, trailing garbage. The caller rebuilds from scratch
// and (typically) overwrites the bad entry via save(). Saves write to a
// temporary file in the same directory and rename() it into place, so a
// crashed or concurrent writer can never leave a torn entry under the final
// name. All failures are silent by design: the store is a cache, and a cache
// that can crash the tool is worse than no cache.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sbst::store {

/// Canonical identity of one cached artifact: a single struct carrying every
/// axis that can distinguish two artifacts, replacing the per-kind parallel
/// keys (component index + options vector + mode array slot) the session
/// cache used to juggle. Axes irrelevant to a kind stay at their zero value,
/// so equal artifacts always produce equal keys:
///
///   universe:  kind, version, content (netlist hash)
///   compiled:  kind, version, lanes, opts, content
///   observe:   kind, cut, mode, content            (in-memory only)
///   cone:      kind, cut, mode, content            (in-memory only)
///   patterns:  kind, version, content, tag
///
/// bytes() serializes the whole struct; the store files the artifact under
/// those bytes and core::GradingSession's memory cache keys it by them too.
/// Program-scoped artifacts (decoded programs, good runs, good paths) do not
/// use this struct: their key bytes carry the full program image and run
/// parameters, because a "content" hash would let two programs collide.
/// Those bytes are likewise both their store key and their memory key.
struct ArtifactKey {
  std::string kind;           // "universe", "compiled", "patterns", ...
  std::uint32_t version = 0;  // the artifact codec's kSerialVersion
  std::uint32_t cut = 0;      // component id when content alone is not a key
  std::uint8_t mode = 0;      // ObserveMode for observe/cone slots
  std::uint8_t lanes = 0;     // lane-block width for compiled netlists
  std::uint8_t opts = 0;      // CompileOptions bits for compiled netlists
  std::uint64_t content = 0;  // content hash of the underlying model
  std::string tag;            // free-form qualifier (e.g. pattern-set name)

  /// Serialized key material: the store key and the session's memory key.
  std::vector<std::uint8_t> bytes() const;
};

/// Counters for cache-effectiveness reporting (sbst stats / stderr summary).
/// `loads` = hits + misses + invalid; `invalid` counts files that existed
/// but failed validation (corruption, version skew, key collision).
struct StoreStats {
  std::uint64_t loads = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalid = 0;
  std::uint64_t writes = 0;
  std::uint64_t write_failures = 0;
  /// Size-budget enforcement (zero unless a budget is set): entries removed
  /// by LRU-by-mtime eviction, bytes they held, and stale temporary files
  /// (a crashed writer's leftovers) swept during eviction scans.
  std::uint64_t evictions = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t stale_tmp_removed = 0;
};

class ArtifactStore {
 public:
  /// On-disk store format version; bumped when the header layout changes.
  /// Entries from other versions live in a different subdirectory and are
  /// simply never seen.
  static constexpr std::uint32_t kFormatVersion = 1;

  explicit ArtifactStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Total-size budget in bytes; 0 (the default) = unlimited. With a budget
  /// set, every save() ends with an eviction sweep: entry files are removed
  /// oldest-mtime-first (load hits touch the mtime, so eviction order is
  /// LRU) until the store fits the budget, and stale temporary files left
  /// by crashed writers are swept. The entry just written is never evicted
  /// by its own sweep. Deletes are single atomic unlink()s, so a concurrent
  /// reader sees either the full entry or a plain miss — a full disk
  /// degrades to cold rebuilds, never to write failures or torn reads.
  void set_budget(std::uint64_t bytes);
  std::uint64_t budget() const;

  /// Loads the payload for (kind, key), or nullopt when absent or invalid.
  std::optional<std::vector<std::uint8_t>> load(
      std::string_view kind, const std::vector<std::uint8_t>& key);

  /// Persists payload under (kind, key), atomically replacing any existing
  /// entry. Returns false (and counts a write failure) if the filesystem
  /// refuses; the in-memory artifact is unaffected either way.
  bool save(std::string_view kind, const std::vector<std::uint8_t>& key,
            const std::vector<std::uint8_t>& payload);

  /// ArtifactKey conveniences: kind comes from the key, bytes from bytes().
  std::optional<std::vector<std::uint8_t>> load(const ArtifactKey& key) {
    return load(key.kind, key.bytes());
  }
  bool save(const ArtifactKey& key,
            const std::vector<std::uint8_t>& payload) {
    return save(key.kind, key.bytes(), payload);
  }

  StoreStats stats() const;

  /// `$XDG_CACHE_HOME/sbst` when set, else `$HOME/.cache/sbst`. When BOTH
  /// are unset there is no sane cache root: returns empty, which callers
  /// must treat as "store disabled" (fail soft with one stderr warning, run
  /// without persistence) rather than scribbling into the working
  /// directory.
  static std::string default_dir();

  /// Maps a user-facing store spec to a directory: "auto" (or empty) means
  /// default_dir() — possibly empty, see above — anything else is taken
  /// literally.
  static std::string resolve_dir(std::string_view spec);

 private:
  std::string entry_path(std::string_view kind,
                         const std::vector<std::uint8_t>& key) const;
  void evict_over_budget_locked(const std::string& keep_path);

  std::string dir_;
  mutable std::mutex mu_;
  StoreStats stats_;
  std::uint64_t budget_ = 0;
};

}  // namespace sbst::store
