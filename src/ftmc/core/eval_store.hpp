// Persistent, memory-mapped, content-addressed evaluation store — the L2
// behind EvaluationCache.
//
// The in-process EvaluationCache (the L1) dies with its process, so every
// campaign shard, resume, and repeated experiment re-pays Algorithm 1 from
// zero.  EvalStore persists (key, Candidate, Evaluation) triples to disk so
// memoized evaluations survive restarts and are shared across campaign
// shards, `ftmc optimize --cache-dir=` invocations, and `ftmc serve`
// clients.  Keys are Evaluator::candidate_key values — the FNV-1a candidate
// content hash seeded with the options fingerprint — and lookups compare the
// record's candidate bytes with the caller's encode_candidate bytes, so a
// hash collision degrades to a miss, never a wrong result (the same
// contract as EvaluationCache, which holds the same bytes).
//
// On-disk layout under one directory:
//
//   evals.log   append-only record log
//     [0..16)   header: magic "FTMCSTOR" | version u32 | reserved u32
//     records   key u64 | cand_bytes u32 | eval_bytes u32 | digest u64
//               | payload (serialized Candidate then Evaluation,
//                 little-endian field stream of core/serialize.hpp);
//               digest = fnv1a_bytes(payload)
//
//   evals.idx   open-addressing index snapshot (rewritten atomically)
//     [0..48)   header: magic "FTMCSIDX" | version u32 | reserved u32
//               | slot_count u64 | record_count u64 | log_bytes u64
//               | slots_digest u64
//     slots     slot_count x (key u64, log_offset u64); offset 0 = empty;
//               probe sequence: key & (slot_count-1), linear
//
// Crash safety: appends are a single flock-guarded write(2), so a crash can
// only tear the *tail* of the log.  Every record carries its own payload
// digest; open() walks the log suffix not covered by the index, recovers
// every fully-written record, and truncates the torn tail loudly (or, with
// strict_open, rejects it with StoreError so tests and audits can observe
// the damage).  The index is a pure cache of the log — when missing, stale,
// or corrupted it is rebuilt from the log and the rebuild is counted.  The
// log prefix and the index are both mmap'd read-only; records appended by
// this process after open are served via pread until flush() remaps.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftmc/core/evaluator.hpp"

namespace ftmc::core {

/// Structural store damage (bad magic/version, unreadable files, torn tail
/// under strict_open).  Ordinary misses and collisions are not errors.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct EvalStoreOptions {
  /// Opens the log read-only and never writes the index back; put() throws.
  bool read_only = false;
  /// Rejects a torn log tail with StoreError instead of truncating it.
  bool strict_open = false;
  /// fsync(2) the log after every append (durability over throughput).
  bool durable_appends = false;
};

struct EvalStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t appends = 0;
  std::uint64_t records = 0;        ///< distinct keys currently resident
  std::uint64_t bytes_mapped = 0;   ///< log + index bytes mmap'd
  std::uint64_t log_bytes = 0;      ///< validated log length at open
  std::uint64_t torn_bytes_discarded = 0;
  std::uint64_t index_rebuilds = 0;
};

class EvalStore {
 public:
  static constexpr std::uint32_t kVersion = 1;
  static constexpr const char* kLogMagic = "FTMCSTOR";
  static constexpr const char* kIndexMagic = "FTMCSIDX";
  static constexpr std::size_t kLogHeaderSize = 16;
  static constexpr std::size_t kRecordHeaderSize = 24;
  static constexpr std::size_t kIndexHeaderSize = 48;

  /// Opens (creating when absent, unless read_only) the store rooted at
  /// directory `dir`.  Throws StoreError on structural damage.
  explicit EvalStore(std::string dir, EvalStoreOptions options = {});
  ~EvalStore();

  EvalStore(const EvalStore&) = delete;
  EvalStore& operator=(const EvalStore&) = delete;

  /// Looks up `key` (an Evaluator::candidate_key) and compares the
  /// record's candidate slice with `candidate`, the encode_candidate bytes
  /// of the candidate sought; a collision counts as a miss.
  std::optional<Evaluation> find(std::uint64_t key,
                                 std::span<const std::uint8_t> candidate);

  /// Appends the evaluation for `key` under the encoded `candidate`
  /// (skipped when an identical candidate is already resident).  Throws
  /// StoreError on a read-only store.
  void put(std::uint64_t key, std::span<const std::uint8_t> candidate,
           const Evaluation& evaluation);

  /// fsyncs the log and atomically rewrites the index to cover it; called
  /// by the destructor on writable stores.
  void flush();

  EvalStoreStats stats() const;

  const std::string& directory() const noexcept { return dir_; }
  std::string log_path() const { return dir_ + "/evals.log"; }
  std::string index_path() const { return dir_ + "/evals.idx"; }

 private:
  struct TailRecord {
    std::uint64_t key;
    std::uint64_t offset;
  };

  void open_log();
  bool load_index();
  void scan_log_tail(std::uint64_t from);
  void map_log(std::uint64_t length);
  void map_index(std::uint64_t file_size);
  void unmap_all();
  void persist_index_locked();
  void absorb_sibling_records_locked();
  bool index_lookup(std::uint64_t key, std::uint64_t* offset) const;
  std::optional<Evaluation> read_record_locked(
      std::uint64_t offset, std::uint64_t key,
      std::span<const std::uint8_t> candidate,
      bool* candidate_matches) const;
  void update_mapped_gauge_locked() const;

  std::string dir_;
  EvalStoreOptions options_;

  int log_fd_ = -1;
  std::uint64_t log_file_size_ = 0;  ///< size observed at open
  const std::uint8_t* log_map_ = nullptr;
  std::size_t log_map_size_ = 0;
  std::uint64_t log_valid_end_ = 0;  ///< validated log length (>= mapped)
  std::uint64_t overlay_end_ = 0;    ///< end of the last record this
                                     ///< process appended (index coverage)

  const std::uint8_t* idx_map_ = nullptr;
  std::size_t idx_map_size_ = 0;
  std::uint64_t idx_slot_count_ = 0;
  std::uint64_t idx_record_count_ = 0;

  /// Records not covered by the mapped index: the tail scanned at open plus
  /// everything put() since the last flush().  Key -> log offset.
  std::unordered_map<std::uint64_t, std::uint64_t> overlay_;

  mutable std::mutex mutex_;
  mutable EvalStoreStats stats_;
};

/// Store directory for one system under a shared --cache-dir root:
/// "<root>/sys-<16 hex digits of system_digest>".  Store keys hash the
/// *candidate* only, so candidates of unrelated systems can collide
/// byte-for-byte and sharing one store across systems could return a wrong
/// evaluation — each system file therefore gets its own store, keyed by
/// the file's content digest (util::fnv1a_bytes of its bytes).
std::string store_directory(const std::string& root,
                            std::uint64_t system_digest);

}  // namespace ftmc::core
