#include "ftmc/core/eval_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "ftmc/core/serialize.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/util/byte_stream.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/log.hpp"

namespace ftmc::core {
namespace {

struct StoreCounters {
  obs::Counter hits{"store.hits"};
  obs::Counter misses{"store.misses"};
  obs::Counter appends{"store.appends"};
  obs::Counter rebuilds{"store.index.rebuilds"};
  obs::Counter torn_bytes{"store.torn_bytes"};
  obs::Gauge bytes_mapped{"store.bytes_mapped"};
};

StoreCounters& counters() {
  static StoreCounters instance;
  return instance;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw StoreError(what + " '" + path + "': " + std::strerror(errno));
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return value;
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i)
    value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return value;
}

void store_u64(std::uint8_t* p, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("cannot append to evaluation store log", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

void pread_all(int fd, std::uint8_t* data, std::size_t size,
               std::uint64_t offset, const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, data + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("cannot read evaluation store log", path);
    }
    if (n == 0)
      throw StoreError("evaluation store log '" + path +
                       "' shrank while reading (concurrent truncation?)");
    done += static_cast<std::size_t>(n);
  }
}

std::uint64_t file_size_of(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) fail("cannot stat evaluation store file", path);
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace

EvalStore::EvalStore(std::string dir, EvalStoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (!options_.read_only) {
    // mkdir -p: a --cache-dir root need not pre-exist.
    for (std::size_t slash = dir_.find('/', 1); slash != std::string::npos;
         slash = dir_.find('/', slash + 1)) {
      const std::string parent = dir_.substr(0, slash);
      if (::mkdir(parent.c_str(), 0755) != 0 && errno != EEXIST)
        fail("cannot create evaluation store directory", parent);
    }
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
      fail("cannot create evaluation store directory", dir_);
  }
  try {
    open_log();
    const bool index_ok = load_index();
    const std::uint64_t scan_from =
        index_ok ? std::max<std::uint64_t>(stats_.log_bytes, kLogHeaderSize)
                 : kLogHeaderSize;
    if (log_file_size_ > 0) scan_log_tail(scan_from);
    map_log(log_valid_end_);
    // Count overlay keys the mapped index does not already know about.
    std::uint64_t fresh = 0;
    for (const auto& [key, offset] : overlay_) {
      std::uint64_t ignored;
      if (!index_lookup(key, &ignored)) ++fresh;
    }
    stats_.records = idx_record_count_ + fresh;
    stats_.log_bytes = log_valid_end_;
    if (!index_ok && !overlay_.empty()) {
      // The log holds records the index does not cover at all: the index
      // file was missing, stale, or corrupted.  Rebuild it from the log —
      // loudly, so silent index loss cannot masquerade as a cold store.
      ++stats_.index_rebuilds;
      counters().rebuilds.add(1);
      util::log_warn("evaluation store '", dir_, "': rebuilding index from ",
                     stats_.records, " logged records");
      if (!options_.read_only) persist_index_locked();
    }
    update_mapped_gauge_locked();
  } catch (...) {
    unmap_all();
    if (log_fd_ >= 0) ::close(log_fd_);
    log_fd_ = -1;
    throw;
  }
}

EvalStore::~EvalStore() {
  if (!options_.read_only && log_fd_ >= 0) {
    try {
      flush();
    } catch (const std::exception& error) {
      util::log_warn("evaluation store '", dir_,
                     "': flush on close failed: ", error.what());
    }
  }
  unmap_all();
  if (log_fd_ >= 0) ::close(log_fd_);
}

void EvalStore::open_log() {
  const std::string path = log_path();
  const int flags =
      options_.read_only ? O_RDONLY : (O_RDWR | O_CREAT);
  log_fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (log_fd_ < 0) fail("cannot open evaluation store log", path);
  log_file_size_ = file_size_of(log_fd_, path);
  if (log_file_size_ == 0) {
    if (options_.read_only) return;  // empty store: no header yet
    util::ByteWriter header;
    for (std::size_t i = 0; i < 8; ++i)
      header.u8(static_cast<std::uint8_t>(kLogMagic[i]));
    header.u32(kVersion);
    header.u32(0);  // reserved
    const std::vector<std::uint8_t> bytes = header.take();
    write_all(log_fd_, bytes.data(), bytes.size(), path);
    if (options_.durable_appends && ::fsync(log_fd_) != 0)
      fail("cannot fsync evaluation store log", path);
    log_file_size_ = kLogHeaderSize;
  }
  if (log_file_size_ < kLogHeaderSize)
    throw StoreError("evaluation store log '" + path + "' is truncated: " +
                     std::to_string(log_file_size_) +
                     " bytes is shorter than the 16-byte header");
  std::uint8_t header[kLogHeaderSize];
  pread_all(log_fd_, header, sizeof header, 0, path);
  if (std::memcmp(header, kLogMagic, 8) != 0)
    throw StoreError("not an ftmc evaluation store: magic bytes of '" + path +
                     "' are not \"FTMCSTOR\"");
  const std::uint32_t version = load_u32(header + 8);
  if (version != kVersion)
    throw StoreError("unsupported evaluation store version " +
                     std::to_string(version) + " in '" + path +
                     "' (this build reads v" + std::to_string(kVersion) +
                     ")");
}

bool EvalStore::load_index() {
  const std::string path = index_path();
  if (!util::file_exists(path)) return false;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const std::uint64_t size = file_size_of(fd, path);
  std::uint8_t header[kIndexHeaderSize];
  if (size < kIndexHeaderSize) {
    ::close(fd);
    return false;
  }
  pread_all(fd, header, sizeof header, 0, path);
  const std::uint64_t slot_count = load_u64(header + 16);
  const std::uint64_t record_count = load_u64(header + 24);
  const std::uint64_t covered = load_u64(header + 32);
  const std::uint64_t slots_digest = load_u64(header + 40);
  const bool plausible =
      std::memcmp(header, kIndexMagic, 8) == 0 &&
      load_u32(header + 8) == kVersion && slot_count > 0 &&
      std::has_single_bit(slot_count) && record_count <= slot_count &&
      size == kIndexHeaderSize + slot_count * 16 &&
      covered >= kLogHeaderSize && covered <= log_file_size_;
  if (!plausible) {
    ::close(fd);
    return false;
  }
  void* map = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ,
                     MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (map == MAP_FAILED) return false;
  const auto* bytes = static_cast<const std::uint8_t*>(map);
  if (util::fnv1a_bytes({bytes + kIndexHeaderSize,
                         static_cast<std::size_t>(slot_count * 16)}) !=
      slots_digest) {
    ::munmap(map, static_cast<std::size_t>(size));
    return false;
  }
  idx_map_ = bytes;
  idx_map_size_ = static_cast<std::size_t>(size);
  idx_slot_count_ = slot_count;
  idx_record_count_ = record_count;
  stats_.log_bytes = covered;  // where the tail scan starts
  return true;
}

void EvalStore::scan_log_tail(std::uint64_t from) {
  const std::string path = log_path();
  log_valid_end_ = std::min(from, log_file_size_);
  if (from >= log_file_size_) return;
  const std::size_t len = static_cast<std::size_t>(log_file_size_ - from);
  std::vector<std::uint8_t> tail(len);
  pread_all(log_fd_, tail.data(), len, from, path);
  std::size_t off = 0;
  while (off + kRecordHeaderSize <= len) {
    const std::uint64_t key = load_u64(tail.data() + off);
    const std::uint64_t cand_bytes = load_u32(tail.data() + off + 8);
    const std::uint64_t eval_bytes = load_u32(tail.data() + off + 12);
    const std::uint64_t digest = load_u64(tail.data() + off + 16);
    const std::uint64_t payload = cand_bytes + eval_bytes;
    if (off + kRecordHeaderSize + payload > len) break;
    const std::uint8_t* body = tail.data() + off + kRecordHeaderSize;
    if (util::fnv1a_bytes({body, static_cast<std::size_t>(payload)}) !=
        digest)
      break;
    overlay_[key] = from + off;
    off += kRecordHeaderSize + static_cast<std::size_t>(payload);
  }
  log_valid_end_ = from + off;
  overlay_end_ = log_valid_end_;
  const std::uint64_t torn = log_file_size_ - log_valid_end_;
  if (torn == 0) return;
  if (options_.strict_open)
    throw StoreError(
        "evaluation store log '" + path + "' has a torn " +
        std::to_string(torn) + "-byte tail at offset " +
        std::to_string(log_valid_end_) +
        " (crash mid-append); reopen without strict_open to recover the "
        "fully-written records");
  util::log_warn("evaluation store '", dir_, "': discarding torn ", torn,
                 "-byte log tail at offset ", log_valid_end_,
                 " (crash mid-append); ", overlay_.size(),
                 " fully-written tail records recovered");
  stats_.torn_bytes_discarded += torn;
  counters().torn_bytes.add(torn);
  if (!options_.read_only &&
      ::ftruncate(log_fd_, static_cast<off_t>(log_valid_end_)) != 0)
    fail("cannot truncate torn evaluation store log", path);
}

void EvalStore::map_log(std::uint64_t length) {
  if (length == 0) return;
  void* map = ::mmap(nullptr, static_cast<std::size_t>(length), PROT_READ,
                     MAP_SHARED, log_fd_, 0);
  if (map == MAP_FAILED) fail("cannot mmap evaluation store log", log_path());
  log_map_ = static_cast<const std::uint8_t*>(map);
  log_map_size_ = static_cast<std::size_t>(length);
}

void EvalStore::map_index(std::uint64_t file_size) {
  const int fd = ::open(index_path().c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("cannot reopen evaluation store index", index_path());
  void* map = ::mmap(nullptr, static_cast<std::size_t>(file_size), PROT_READ,
                     MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED)
    fail("cannot mmap evaluation store index", index_path());
  idx_map_ = static_cast<const std::uint8_t*>(map);
  idx_map_size_ = static_cast<std::size_t>(file_size);
}

void EvalStore::unmap_all() {
  if (log_map_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(log_map_), log_map_size_);
  log_map_ = nullptr;
  log_map_size_ = 0;
  if (idx_map_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(idx_map_), idx_map_size_);
  idx_map_ = nullptr;
  idx_map_size_ = 0;
  idx_slot_count_ = 0;
  idx_record_count_ = 0;
}

bool EvalStore::index_lookup(std::uint64_t key, std::uint64_t* offset) const {
  if (idx_slot_count_ == 0) return false;
  const std::uint64_t mask = idx_slot_count_ - 1;
  const std::uint8_t* slots = idx_map_ + kIndexHeaderSize;
  std::uint64_t i = key & mask;
  for (std::uint64_t probes = 0; probes < idx_slot_count_; ++probes) {
    const std::uint8_t* slot = slots + i * 16;
    const std::uint64_t slot_offset = load_u64(slot + 8);
    if (slot_offset == 0) return false;  // empty slot ends the probe chain
    if (load_u64(slot) == key) {
      *offset = slot_offset;
      return true;
    }
    i = (i + 1) & mask;
  }
  return false;
}

std::optional<Evaluation> EvalStore::read_record_locked(
    std::uint64_t offset, std::uint64_t key,
    std::span<const std::uint8_t> candidate, bool* candidate_matches) const {
  *candidate_matches = false;
  const std::string path = log_path();
  std::uint8_t header[kRecordHeaderSize];
  if (offset + kRecordHeaderSize <= log_map_size_)
    std::memcpy(header, log_map_ + offset, sizeof header);
  else
    pread_all(log_fd_, header, sizeof header, offset, path);
  if (load_u64(header) != key)
    throw StoreError("evaluation store log '" + path +
                     "' record at offset " + std::to_string(offset) +
                     " does not carry the indexed key");
  const std::size_t cand_bytes = load_u32(header + 8);
  const std::size_t eval_bytes = load_u32(header + 12);
  // The record's candidate slice is write_candidate's output, the same
  // bytes the caller encoded: a different length or content is a 64-bit
  // collision, hence a miss.
  if (cand_bytes != candidate.size()) return std::nullopt;
  const std::size_t payload = cand_bytes + eval_bytes;
  std::vector<std::uint8_t> copy;
  const std::uint8_t* body;
  if (offset + kRecordHeaderSize + payload <= log_map_size_) {
    body = log_map_ + offset + kRecordHeaderSize;
  } else {
    copy.resize(payload);
    pread_all(log_fd_, copy.data(), payload, offset + kRecordHeaderSize,
              path);
    body = copy.data();
  }
  if (!std::equal(candidate.begin(), candidate.end(), body))
    return std::nullopt;
  try {
    util::ByteReader in({body + cand_bytes, eval_bytes}, "store record");
    Evaluation evaluation = read_evaluation(in);
    *candidate_matches = true;
    return evaluation;
  } catch (const util::ByteStreamError& error) {
    throw StoreError("evaluation store log '" + path +
                     "' record at offset " + std::to_string(offset) +
                     " is corrupted: " + error.what());
  }
}

std::optional<Evaluation> EvalStore::find(
    std::uint64_t key, std::span<const std::uint8_t> candidate) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t offset = 0;
  bool found = false;
  if (const auto it = overlay_.find(key); it != overlay_.end()) {
    offset = it->second;
    found = true;
  } else {
    found = index_lookup(key, &offset);
  }
  if (found) {
    bool matches = false;
    std::optional<Evaluation> evaluation =
        read_record_locked(offset, key, candidate, &matches);
    if (matches) {
      ++stats_.hits;
      counters().hits.add(1);
      return evaluation;
    }
  }
  ++stats_.misses;
  counters().misses.add(1);
  return std::nullopt;
}

void EvalStore::put(std::uint64_t key,
                    std::span<const std::uint8_t> candidate,
                    const Evaluation& evaluation) {
  if (options_.read_only)
    throw StoreError("evaluation store '" + dir_ +
                     "' is read-only: put() is not allowed");
  util::ByteWriter evaluation_writer;
  write_evaluation(evaluation_writer, evaluation);
  const std::vector<std::uint8_t> encoded = evaluation_writer.take();
  std::vector<std::uint8_t> payload(candidate.begin(), candidate.end());
  payload.insert(payload.end(), encoded.begin(), encoded.end());

  util::ByteWriter record_writer;
  record_writer.u64(key);
  record_writer.u32(static_cast<std::uint32_t>(candidate.size()));
  record_writer.u32(static_cast<std::uint32_t>(encoded.size()));
  record_writer.u64(util::fnv1a_bytes(payload));
  std::vector<std::uint8_t> record = record_writer.take();
  record.insert(record.end(), payload.begin(), payload.end());

  const std::string path = log_path();
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-check residency under the lock: a concurrent evaluator may have
  // appended this candidate between the caller's find() and this put(), and
  // duplicate log records are pure bloat.
  std::uint64_t existing = 0;
  bool resident = false;
  if (const auto it = overlay_.find(key); it != overlay_.end()) {
    existing = it->second;
    resident = true;
  } else {
    resident = index_lookup(key, &existing);
  }
  if (resident) {
    bool matches = false;
    (void)read_record_locked(existing, key, candidate, &matches);
    if (matches) return;
  }

  // flock serializes appends across processes; within the process the mutex
  // already does.  One write(2) per record means a crash can only tear the
  // log's tail, which the per-record digest detects at the next open.
  if (::flock(log_fd_, LOCK_EX) != 0)
    fail("cannot lock evaluation store log", path);
  const off_t offset = ::lseek(log_fd_, 0, SEEK_END);
  if (offset < 0) {
    ::flock(log_fd_, LOCK_UN);
    fail("cannot seek evaluation store log", path);
  }
  try {
    write_all(log_fd_, record.data(), record.size(), path);
  } catch (...) {
    ::flock(log_fd_, LOCK_UN);
    throw;
  }
  if (options_.durable_appends && ::fsync(log_fd_) != 0) {
    ::flock(log_fd_, LOCK_UN);
    fail("cannot fsync evaluation store log", path);
  }
  ::flock(log_fd_, LOCK_UN);

  if (!resident) ++stats_.records;
  overlay_[key] = static_cast<std::uint64_t>(offset);
  overlay_end_ = std::max<std::uint64_t>(
      overlay_end_, static_cast<std::uint64_t>(offset) + record.size());
  ++stats_.appends;
  counters().appends.add(1);
}

void EvalStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.read_only || log_fd_ < 0) return;
  if (::fsync(log_fd_) != 0)
    fail("cannot fsync evaluation store log", log_path());
  // Nothing added since the last index write: the index on disk is current
  // up to its covered mark, and sibling records past it are found by the
  // next open's tail scan.
  if (overlay_.empty()) return;
  persist_index_locked();
  update_mapped_gauge_locked();
}

void EvalStore::absorb_sibling_records_locked() {
  // Sibling processes sharing this log append their records under the same
  // flock ours use, so everything past this process's validated prefix is a
  // run of complete records from an arbitrary interleaving of writers.  The
  // index snapshot below claims coverage of every log byte up to `covered`;
  // absorbing the interleaved records first keeps that claim honest —
  // otherwise a sibling's records inside the covered range would be invisible
  // to every future open (the tail scan starts after `covered`).
  if (::flock(log_fd_, LOCK_SH) != 0)
    fail("cannot lock evaluation store log", log_path());
  std::uint64_t log_end = 0;
  try {
    log_end = file_size_of(log_fd_, log_path());
  } catch (...) {
    ::flock(log_fd_, LOCK_UN);
    throw;
  }
  ::flock(log_fd_, LOCK_UN);
  const std::uint64_t from = log_valid_end_;
  if (log_end <= from) return;
  // Bytes below log_end are immutable (the log is append-only), so the scan
  // itself needs no lock.
  const std::size_t len = static_cast<std::size_t>(log_end - from);
  std::vector<std::uint8_t> tail(len);
  pread_all(log_fd_, tail.data(), len, from, log_path());
  std::size_t off = 0;
  while (off + kRecordHeaderSize <= len) {
    const std::uint64_t key = load_u64(tail.data() + off);
    const std::uint64_t cand_bytes = load_u32(tail.data() + off + 8);
    const std::uint64_t eval_bytes = load_u32(tail.data() + off + 12);
    const std::uint64_t digest = load_u64(tail.data() + off + 16);
    const std::uint64_t payload = cand_bytes + eval_bytes;
    if (off + kRecordHeaderSize + payload > len) break;
    const std::uint8_t* body = tail.data() + off + kRecordHeaderSize;
    if (util::fnv1a_bytes({body, static_cast<std::size_t>(payload)}) !=
        digest)
      break;  // a sibling crashed mid-append; open() recovers/truncates
    overlay_.emplace(key, from + off);  // our own newer re-put offsets win
    off += kRecordHeaderSize + static_cast<std::size_t>(payload);
  }
  overlay_end_ = std::max(overlay_end_, from + off);
}

void EvalStore::persist_index_locked() {
  absorb_sibling_records_locked();
  // Merge the mapped index with the overlay (overlay wins: it holds the
  // newest offset for re-put keys).
  std::unordered_map<std::uint64_t, std::uint64_t> entries;
  entries.reserve(idx_record_count_ + overlay_.size());
  if (idx_slot_count_ > 0) {
    const std::uint8_t* slots = idx_map_ + kIndexHeaderSize;
    for (std::uint64_t i = 0; i < idx_slot_count_; ++i) {
      const std::uint64_t offset = load_u64(slots + i * 16 + 8);
      if (offset != 0) entries[load_u64(slots + i * 16)] = offset;
    }
  }
  for (const auto& [key, offset] : overlay_) entries[key] = offset;

  const std::uint64_t covered = std::max(log_valid_end_, overlay_end_);
  const std::uint64_t slot_count = std::bit_ceil(
      std::max<std::uint64_t>(16, entries.size() * 2));
  std::vector<std::uint8_t> slots(
      static_cast<std::size_t>(slot_count) * 16, 0);
  const std::uint64_t mask = slot_count - 1;
  for (const auto& [key, offset] : entries) {
    std::uint64_t i = key & mask;
    while (load_u64(slots.data() + i * 16 + 8) != 0) i = (i + 1) & mask;
    store_u64(slots.data() + i * 16, key);
    store_u64(slots.data() + i * 16 + 8, offset);
  }

  util::ByteWriter file;
  for (std::size_t i = 0; i < 8; ++i)
    file.u8(static_cast<std::uint8_t>(kIndexMagic[i]));
  file.u32(kVersion);
  file.u32(0);  // reserved
  file.u64(slot_count);
  file.u64(entries.size());
  file.u64(covered);
  file.u64(util::fnv1a_bytes(slots));
  std::vector<std::uint8_t> bytes = file.take();
  bytes.insert(bytes.end(), slots.begin(), slots.end());
  util::write_file_atomic(index_path(), bytes);

  if (idx_map_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(idx_map_), idx_map_size_);
  idx_map_ = nullptr;
  idx_map_size_ = 0;
  map_index(bytes.size());
  idx_slot_count_ = slot_count;
  idx_record_count_ = entries.size();

  // Remap the log so everything the new index covers is mmap-served.
  if (covered > log_map_size_) {
    if (log_map_ != nullptr)
      ::munmap(const_cast<std::uint8_t*>(log_map_), log_map_size_);
    log_map_ = nullptr;
    log_map_size_ = 0;
    map_log(covered);
    log_valid_end_ = covered;
  }
  overlay_.clear();
  stats_.records = entries.size();
  stats_.log_bytes = covered;
}

EvalStoreStats EvalStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  update_mapped_gauge_locked();
  return stats_;
}

void EvalStore::update_mapped_gauge_locked() const {
  stats_.bytes_mapped = log_map_size_ + idx_map_size_;
  counters().bytes_mapped.set(stats_.bytes_mapped);
}

std::string store_directory(const std::string& root,
                            std::uint64_t system_digest) {
  static const char* const kHex = "0123456789abcdef";
  std::string name = "sys-";
  for (int shift = 60; shift >= 0; shift -= 4)
    name.push_back(kHex[(system_digest >> shift) & 0xF]);
  return root + "/" + name;
}

}  // namespace ftmc::core
