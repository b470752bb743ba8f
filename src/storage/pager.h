#ifndef RMA_STORAGE_PAGER_H_
#define RMA_STORAGE_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"

namespace rma {

/// FNV-1a 64-bit hash, seeded. Checksums the small records of the storage
/// tier (page-file header, MANIFEST, rma_load fingerprints): endian-stable
/// for our fixed little-endian on-disk integers, and good enough to detect
/// torn writes (the threat model is a crash mid-write, not an adversary).
/// Data pages use a word-wide hash instead (Pager, format version 2).
uint64_t StorageChecksum(const void* data, size_t n, uint64_t seed = 0);

/// A fixed-size-page column file.
///
/// On-disk layout (all integers little-endian, native — we do not support
/// cross-endian data directories):
///
///   page 0          file header: magic, format version, page size, page
///                   count, header checksum. Rewritten (and fsynced last)
///                   whenever the extent map grows, so a crash between data
///                   writes and the header write leaves the old, valid
///                   header in place.
///   page 1..N      data pages: [u64 checksum][u64 page id][payload]. The
///                   checksum covers the page id and the payload, so a page
///                   written for one slot can never be mistaken for another
///                   (detects misdirected writes as well as torn ones). It
///                   is a word-wide XXH64-style hash that detects every
///                   change confined to one 8-byte word.
///
/// Pages are allocated in contiguous *extents* (one extent per column tail)
/// so a pinned column is one contiguous buffer-pool frame and the SIMD fast
/// paths keep their raw pointers. There is no free list: column files are
/// immutable once written (Register replaces the whole file), so the only
/// allocation pattern is append.
///
/// Thread safety: reads use positional pread and may run concurrently;
/// allocation and header writes are serialized by `mu_`.
class Pager {
 public:
  static constexpr int64_t kDefaultPageBytes = 64 * 1024;
  static constexpr int64_t kMinPageBytes = 512;
  static constexpr int64_t kPageHeaderBytes = 16;  // checksum + page id
  static constexpr uint64_t kMagic = 0x3152504741'4d52ull;  // "RMAGPR1" tag

  /// Creates (truncating) a page file with the given page size.
  static Result<std::shared_ptr<Pager>> Create(const std::string& path,
                                               int64_t page_bytes);

  /// Opens an existing page file, verifying the header checksum, magic and
  /// format version (another version is NotImplemented, naming it). Data-page
  /// checksums are verified lazily on ReadPage.
  static Result<std::shared_ptr<Pager>> Open(const std::string& path);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  const std::string& path() const { return path_; }
  int64_t page_bytes() const { return page_bytes_; }
  /// Payload capacity of one data page.
  int64_t payload_bytes() const { return page_bytes_ - kPageHeaderBytes; }
  /// Number of allocated data pages (page ids are 1-based; 0 is the header).
  uint64_t page_count() const;
  /// Process-unique id; the buffer pool keys frames on it so a recycled
  /// Pager* can never alias a dead file's cached pages.
  uint64_t id() const { return id_; }

  /// Reserves `n_pages` contiguous data pages; returns the first page id.
  /// Persists the new page count (data region is extended and the header
  /// rewritten + fsynced by the next Sync()).
  Result<uint64_t> AllocateExtent(uint64_t n_pages);

  /// Reads one data page's payload (payload_bytes() bytes) into `payload`,
  /// verifying the stored checksum; a mismatch is the torn-page signal and
  /// comes back as IoError mentioning "checksum".
  Status ReadPage(uint64_t page, void* payload) const;

  /// Writes one data page's payload, stamping [checksum][page id] ahead of
  /// it. Durable only after Sync().
  Status WritePage(uint64_t page, const void* payload);

  /// fsyncs data pages, then rewrites + fsyncs the header. Ordering matters:
  /// the header's page count is the commit record for AllocateExtent.
  Status Sync();

 private:
  Pager(std::string path, int fd, int64_t page_bytes, uint64_t page_count);

  Status WriteHeaderLocked() RMA_REQUIRES(mu_);

  const std::string path_;
  const int fd_;
  const int64_t page_bytes_;
  const uint64_t id_;
  mutable Mutex mu_;
  uint64_t page_count_ RMA_GUARDED_BY(mu_);
};

}  // namespace rma

#endif  // RMA_STORAGE_PAGER_H_
