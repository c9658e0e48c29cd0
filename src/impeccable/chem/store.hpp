#pragma once
// LigandStore — compact on-disk SMILES library: the out-of-core answer to
// the paper's 4.2B-ligand nCov repository (Sec. 7.1), which arrives as
// thousands of sharded ligand files. A store is a directory of append-only
// shards, each a single file:
//
//   [64-byte header][payload: records][padding to 8][index: u64 offsets]
//
//   header   magic "IMPLIG01", version, flags, record count, payload bytes,
//            index offset, total file bytes, FNV-1a-64 checksum over
//            payload+index. All integers little-endian.
//   record   u16 id_len, u16 smiles_len, id bytes, smiles bytes.
//   index    one u64 per record: offset of the record from payload start,
//            ascending — so (shard, offset) addresses a ligand and a binary
//            search recovers its ordinal.
//
// The read path memory-maps each shard and serves ids/SMILES as
// string_views into the mapping — no per-ligand heap state — while
// validation (header sanity, size and checksum) runs over bounded pread
// buffers so opening a 10 GB store never faults it resident. Corrupt shards
// (truncated file, torn header, inconsistent header sizes, checksum
// mismatch) are skipped and counted: a billion-ligand sweep survives a bad
// file, it does not die on it. This is the library's one corrupt-shard
// policy; ML1 streams the survivors through ml::score_ligands.
//
// The writer is append-only with optional sharded near-duplicate
// deduplication on canonical-SMILES digests: 256 digest buckets keyed on
// the top byte of the 64-bit digest, so membership stays cheap as the
// store grows. Dedup is opt-in — generated campaign libraries must spill
// 1:1 so the on-disk ordinal equals the generator index.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace impeccable::chem {

/// 64-bit FNV-1a over a byte range; `seed` chains multi-buffer hashes.
inline constexpr std::uint64_t kFnvOffset64 = 0xcbf29ce484222325ull;
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = kFnvOffset64);

/// A ligand's on-disk address: shard ordinal + record offset within the
/// shard's payload. Stable across re-opens of the same directory.
struct LigandRef {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;
};

/// Open/ingest counters. `shards_skipped` counts corrupt files survived.
struct StoreStats {
  std::size_t shards_ok = 0;
  std::size_t shards_skipped = 0;
  std::size_t records = 0;
  std::size_t duplicates_dropped = 0;
};

/// Append-only store writer. Buffers one shard in memory and flushes it
/// (header + payload + index + checksum) every `records_per_shard` appends;
/// destruction or finish() seals the tail shard.
struct StoreWriterOptions {
  std::size_t records_per_shard = 100000;
  /// Drop near-duplicates: records whose canonical-SMILES digest was
  /// already ingested. Off by default — campaign spills must be 1:1.
  bool dedup = false;
  /// With dedup on, parse + re-canonicalize each SMILES before digesting
  /// (catches the same molecule written two ways). Off digests the raw
  /// string, for inputs already canonical.
  bool canonicalize = true;
};

class LigandStoreWriter {
 public:
  explicit LigandStoreWriter(std::string directory,
                             StoreWriterOptions opts = {});
  ~LigandStoreWriter();
  LigandStoreWriter(const LigandStoreWriter&) = delete;
  LigandStoreWriter& operator=(const LigandStoreWriter&) = delete;

  /// Append one record; returns false iff dedup dropped it.
  bool append(std::string_view id, std::string_view smiles);

  /// Flush and seal the open shard. Idempotent; append() may not follow.
  void finish();

  const StoreStats& stats() const { return stats_; }

 private:
  void flush_shard();

  std::string dir_;
  StoreWriterOptions opts_;
  StoreStats stats_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint64_t> offsets_;
  std::size_t shard_index_ = 0;
  bool finished_ = false;
  /// Sharded dedup sets: bucket by digest top byte, sorted within.
  std::vector<std::vector<std::uint64_t>> dedup_buckets_;
};

/// Memory-mapped read view over a store directory. All accessors are const
/// and thread-safe; string_views point into the mappings and live as long
/// as the store.
class LigandStore {
 public:
  /// Opens every `shard-*.imls` in name order; corrupt shards are skipped
  /// and counted in stats(). An empty/missing directory yields size()==0.
  static LigandStore open(const std::string& directory);

  LigandStore() = default;
  ~LigandStore();
  LigandStore(LigandStore&&) noexcept;
  LigandStore& operator=(LigandStore&&) noexcept;
  LigandStore(const LigandStore&) = delete;
  LigandStore& operator=(const LigandStore&) = delete;

  std::size_t size() const { return total_; }
  std::string_view id(std::size_t i) const;
  std::string_view smiles(std::size_t i) const;

  /// On-disk address of ligand i / ordinal of an address. `index_of`
  /// returns size() for an address that matches no record.
  LigandRef locate(std::size_t i) const;
  std::size_t index_of(const LigandRef& ref) const;

  /// Advise the kernel that the payload pages backing [begin, end) will not
  /// be re-read soon (MADV_DONTNEED on the spanned page range): streaming
  /// windows call this to bound resident set at window size.
  void release(std::size_t begin, std::size_t end) const;

  const StoreStats& stats() const { return stats_; }
  const std::string& directory() const { return dir_; }

 private:
  struct Shard {
    int fd = -1;
    const std::uint8_t* base = nullptr;  ///< whole-file mapping
    std::size_t bytes = 0;
    std::size_t count = 0;
    std::size_t payload_bytes = 0;
    std::size_t index_offset = 0;
    std::size_t start = 0;  ///< global ordinal of record 0
  };

  const Shard& shard_of(std::size_t i, std::size_t& rec) const;
  std::pair<std::string_view, std::string_view> record(std::size_t i) const;

  std::string dir_;
  std::vector<Shard> shards_;
  std::size_t total_ = 0;
  StoreStats stats_;
};

}  // namespace impeccable::chem
