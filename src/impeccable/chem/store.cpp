#include "impeccable/chem/store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "impeccable/chem/smiles.hpp"

namespace impeccable::chem {

namespace {

constexpr char kMagic[8] = {'I', 'M', 'P', 'L', 'I', 'G', '0', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kChecksumChunk = std::size_t{4} << 20;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string shard_name(std::size_t index) {
  char name[64];
  std::snprintf(name, sizeof name, "shard-%05zu.imls", index);
  return name;
}

/// Checksum [offset, offset+n) of an open fd through a bounded buffer, so
/// validating a huge shard never maps or faults it resident.
bool checksum_range(int fd, std::size_t offset, std::size_t n,
                    std::uint64_t* out) {
  std::vector<std::uint8_t> buf(std::min(n, kChecksumChunk));
  std::uint64_t h = kFnvOffset64;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t want = std::min(n - done, buf.size());
    const ssize_t got = ::pread(fd, buf.data(), want,
                                static_cast<off_t>(offset + done));
    if (got <= 0) return false;
    h = fnv1a64(buf.data(), static_cast<std::size_t>(got), h);
    done += static_cast<std::size_t>(got);
  }
  *out = h;
  return true;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x00000100000001b3ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Writer

LigandStoreWriter::LigandStoreWriter(std::string directory,
                                     StoreWriterOptions opts)
    : dir_(std::move(directory)), opts_(opts) {
  if (opts_.records_per_shard == 0)
    throw std::invalid_argument("LigandStoreWriter: records_per_shard == 0");
  std::filesystem::create_directories(dir_);
  if (opts_.dedup) dedup_buckets_.resize(256);
}

LigandStoreWriter::~LigandStoreWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor flush is best-effort; call finish() to observe failures.
  }
}

bool LigandStoreWriter::append(std::string_view id, std::string_view smiles) {
  if (finished_)
    throw std::logic_error("LigandStoreWriter: append after finish");
  if (id.size() > 0xffff || smiles.size() > 0xffff)
    throw std::invalid_argument("LigandStoreWriter: field too long");
  if (opts_.dedup) {
    std::uint64_t digest = 0;
    if (opts_.canonicalize) {
      const std::string canon = canonical_smiles(smiles);
      digest = fnv1a64(canon.data(), canon.size());
    } else {
      digest = fnv1a64(smiles.data(), smiles.size());
    }
    auto& bucket = dedup_buckets_[digest >> 56];
    const auto it = std::lower_bound(bucket.begin(), bucket.end(), digest);
    if (it != bucket.end() && *it == digest) {
      ++stats_.duplicates_dropped;
      return false;
    }
    bucket.insert(it, digest);
  }
  offsets_.push_back(payload_.size());
  put_u16(payload_, static_cast<std::uint16_t>(id.size()));
  put_u16(payload_, static_cast<std::uint16_t>(smiles.size()));
  payload_.insert(payload_.end(), id.begin(), id.end());
  payload_.insert(payload_.end(), smiles.begin(), smiles.end());
  ++stats_.records;
  if (offsets_.size() >= opts_.records_per_shard) flush_shard();
  return true;
}

void LigandStoreWriter::finish() {
  if (finished_) return;
  flush_shard();
  finished_ = true;
}

void LigandStoreWriter::flush_shard() {
  if (offsets_.empty()) return;
  const std::size_t payload_bytes = payload_.size();
  // Pad the payload so the index is 8-byte aligned in the file (and in any
  // mapping of it).
  while (payload_.size() % 8 != 0) payload_.push_back(0);
  const std::size_t index_offset = kHeaderBytes + payload_.size();

  std::vector<std::uint8_t> index(offsets_.size() * 8);
  for (std::size_t i = 0; i < offsets_.size(); ++i)
    put_u64(index.data() + i * 8, offsets_[i]);

  const std::size_t file_bytes = index_offset + index.size();
  std::uint64_t checksum = fnv1a64(payload_.data(), payload_.size());
  checksum = fnv1a64(index.data(), index.size(), checksum);

  std::uint8_t header[kHeaderBytes] = {};
  std::memcpy(header, kMagic, sizeof kMagic);
  put_u32(header + 8, kVersion);
  put_u32(header + 12, 0);  // flags
  put_u64(header + 16, offsets_.size());
  put_u64(header + 24, payload_bytes);
  put_u64(header + 32, index_offset);
  put_u64(header + 40, file_bytes);
  put_u64(header + 48, checksum);

  const std::string path = dir_ + "/" + shard_name(shard_index_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("LigandStoreWriter: cannot open " + path);
  const bool ok =
      std::fwrite(header, 1, sizeof header, f) == sizeof header &&
      std::fwrite(payload_.data(), 1, payload_.size(), f) == payload_.size() &&
      std::fwrite(index.data(), 1, index.size(), f) == index.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) throw std::runtime_error("LigandStoreWriter: short write " + path);

  ++shard_index_;
  payload_.clear();
  offsets_.clear();
}

// ---------------------------------------------------------------------------
// Reader

LigandStore LigandStore::open(const std::string& directory) {
  LigandStore st;
  st.dir_ = directory;
  std::error_code ec;
  std::vector<std::string> names;
  for (std::filesystem::directory_iterator it(directory, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("shard-", 0) == 0 && name.ends_with(".imls"))
      names.push_back(name);
  }
  std::sort(names.begin(), names.end());

  for (const auto& name : names) {
    const std::string path = directory + "/" + name;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      ++st.stats_.shards_skipped;
      continue;
    }
    struct stat sb {};
    std::uint8_t header[kHeaderBytes];
    Shard sh;
    bool ok = ::fstat(fd, &sb) == 0 &&
              static_cast<std::size_t>(sb.st_size) >= kHeaderBytes &&
              ::pread(fd, header, kHeaderBytes, 0) ==
                  static_cast<ssize_t>(kHeaderBytes) &&
              std::memcmp(header, kMagic, sizeof kMagic) == 0 &&
              get_u32(header + 8) == kVersion;
    if (ok) {
      sh.count = get_u64(header + 16);
      sh.payload_bytes = get_u64(header + 24);
      sh.index_offset = get_u64(header + 32);
      sh.bytes = get_u64(header + 40);
      // Structural sanity: declared size matches the file, the index sits
      // after the payload, and the record count fills the index exactly.
      // The header is outside the checksum, so compare without summing
      // header fields: kHeaderBytes + payload_bytes can wrap.
      ok = sh.bytes == static_cast<std::size_t>(sb.st_size) &&
           sh.index_offset >= kHeaderBytes &&
           sh.payload_bytes <= sh.index_offset - kHeaderBytes &&
           sh.index_offset <= sh.bytes && sh.count > 0 &&
           sh.count == (sh.bytes - sh.index_offset) / 8 &&
           (sh.bytes - sh.index_offset) % 8 == 0;
    }
    if (ok) {
      std::uint64_t sum = 0;
      ok = checksum_range(fd, kHeaderBytes, sh.bytes - kHeaderBytes, &sum) &&
           sum == get_u64(header + 48);
    }
    if (ok) {
      void* base = ::mmap(nullptr, sh.bytes, PROT_READ, MAP_SHARED, fd, 0);
      ok = base != MAP_FAILED;
      if (ok) sh.base = static_cast<const std::uint8_t*>(base);
    }
    if (!ok) {
      ::close(fd);
      ++st.stats_.shards_skipped;
      continue;
    }
    sh.fd = fd;
    sh.start = st.total_;
    st.total_ += sh.count;
    st.shards_.push_back(sh);
    ++st.stats_.shards_ok;
  }
  st.stats_.records = st.total_;
  return st;
}

LigandStore::~LigandStore() {
  for (auto& sh : shards_) {
    if (sh.base)
      ::munmap(const_cast<std::uint8_t*>(sh.base), sh.bytes);
    if (sh.fd >= 0) ::close(sh.fd);
  }
}

LigandStore::LigandStore(LigandStore&& other) noexcept
    : dir_(std::move(other.dir_)),
      shards_(std::move(other.shards_)),
      total_(other.total_),
      stats_(other.stats_) {
  other.shards_.clear();
  other.total_ = 0;
}

LigandStore& LigandStore::operator=(LigandStore&& other) noexcept {
  if (this != &other) {
    this->~LigandStore();
    new (this) LigandStore(std::move(other));
  }
  return *this;
}

const LigandStore::Shard& LigandStore::shard_of(std::size_t i,
                                                std::size_t& rec) const {
  if (i >= total_) throw std::out_of_range("LigandStore: index");
  // First shard whose start is > i, then step back.
  auto it = std::upper_bound(
      shards_.begin(), shards_.end(), i,
      [](std::size_t v, const Shard& s) { return v < s.start; });
  --it;
  rec = i - it->start;
  return *it;
}

std::pair<std::string_view, std::string_view> LigandStore::record(
    std::size_t i) const {
  std::size_t rec = 0;
  const Shard& sh = shard_of(i, rec);
  // Index entries are only as trustworthy as an FNV checksum, which anyone
  // can recompute: bound them by subtraction so a forged offset near 2^64
  // cannot wrap past the checks.
  const std::uint64_t off = get_u64(sh.base + sh.index_offset + rec * 8);
  if (off > sh.payload_bytes || sh.payload_bytes - off < 4)
    throw std::runtime_error("LigandStore: record offset out of payload");
  const std::uint8_t* p = sh.base + kHeaderBytes + off;
  const std::size_t id_len = get_u16(p);
  const std::size_t smi_len = get_u16(p + 2);
  if (sh.payload_bytes - off - 4 < id_len + smi_len)
    throw std::runtime_error("LigandStore: record overruns payload");
  const char* chars = reinterpret_cast<const char*>(p + 4);
  return {std::string_view(chars, id_len),
          std::string_view(chars + id_len, smi_len)};
}

std::string_view LigandStore::id(std::size_t i) const {
  return record(i).first;
}

std::string_view LigandStore::smiles(std::size_t i) const {
  return record(i).second;
}

LigandRef LigandStore::locate(std::size_t i) const {
  std::size_t rec = 0;
  const Shard& sh = shard_of(i, rec);
  LigandRef ref;
  ref.shard = static_cast<std::uint32_t>(&sh - shards_.data());
  ref.offset = get_u64(sh.base + sh.index_offset + rec * 8);
  return ref;
}

std::size_t LigandStore::index_of(const LigandRef& ref) const {
  if (ref.shard >= shards_.size()) return total_;
  const Shard& sh = shards_[ref.shard];
  // The index is ascending by construction; binary search the offset.
  std::size_t lo = 0, hi = sh.count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint64_t off = get_u64(sh.base + sh.index_offset + mid * 8);
    if (off < ref.offset)
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo >= sh.count ||
      get_u64(sh.base + sh.index_offset + lo * 8) != ref.offset)
    return total_;
  return sh.start + lo;
}

void LigandStore::release(std::size_t begin, std::size_t end) const {
  if (begin >= end || begin >= total_) return;
  end = std::min(end, total_);
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t pagesz = page > 0 ? static_cast<std::size_t>(page) : 4096;
  std::size_t i = begin;
  while (i < end) {
    std::size_t rec = 0;
    const Shard& sh = shard_of(i, rec);
    const std::size_t last = std::min(end, sh.start + sh.count) - 1;
    // Clamped to the payload, so a forged index entry cannot aim madvise
    // outside this shard's mapping.
    const std::uint64_t lo_off = std::min<std::uint64_t>(
        get_u64(sh.base + sh.index_offset + rec * 8), sh.payload_bytes);
    const std::uint64_t hi_off = std::min<std::uint64_t>(
        get_u64(sh.base + sh.index_offset + (last - sh.start) * 8),
        sh.payload_bytes);
    // Read the last record's header for its exact extent, and round the span
    // DOWN to page boundaries on both sides. Never release past the caller's
    // range: the kernel maps page-cache folios whole on fault, so zapping
    // bytes ahead of a sequential reader forces an immediate refault that
    // remaps the folio — including the span just released — and the release
    // nets to nothing. Partial boundary pages are picked up by the next call.
    std::uint64_t hi_end = sh.payload_bytes;
    if (sh.payload_bytes - hi_off >= 4) {
      const std::uint8_t* p = sh.base + kHeaderBytes + hi_off;
      hi_end = std::min<std::uint64_t>(
          hi_off + 4 + get_u16(p) + get_u16(p + 2), sh.payload_bytes);
    }
    const std::size_t from = (kHeaderBytes + lo_off) / pagesz * pagesz;
    const std::size_t to = (kHeaderBytes + hi_end) / pagesz * pagesz;
    if (to > from)
      ::madvise(const_cast<std::uint8_t*>(sh.base) + from, to - from,
                MADV_DONTNEED);
    // The offset index is walked once per record by the same reader; drop the
    // consumed index span too (32 MB per full shard adds up across a store).
    const std::size_t ifrom =
        static_cast<std::size_t>(sh.index_offset + rec * 8) / pagesz * pagesz;
    const std::size_t ito =
        std::min<std::size_t>(sh.index_offset + (last - sh.start + 1) * 8,
                              sh.bytes) /
        pagesz * pagesz;
    if (ito > ifrom)
      ::madvise(const_cast<std::uint8_t*>(sh.base) + ifrom, ito - ifrom,
                MADV_DONTNEED);
    i = last + 1;
  }
}

}  // namespace impeccable::chem
