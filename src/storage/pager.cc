#include "storage/pager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <vector>

namespace rma {

namespace {

// Version 2 checksums data pages with PageChecksum (version 1 used the
// byte-serial StorageChecksum); the header checksum is unchanged, so a
// version 1 file opens far enough to be refused by its version.
constexpr uint64_t kFormatVersion = 2;
constexpr size_t kHeaderFields = 4;  // magic, version, page_bytes, page_count
constexpr size_t kHeaderBytes = (kHeaderFields + 1) * sizeof(uint64_t);

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

Status FullPread(int fd, void* buf, size_t n, int64_t off,
                 const std::string& path) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("read", path));
    }
    if (r == 0) {
      return Status::IoError("read " + path + ": unexpected end of file");
    }
    p += r;
    n -= static_cast<size_t>(r);
    off += r;
  }
  return Status::OK();
}

Status FullPwrite(int fd, const void* buf, size_t n, int64_t off,
                  const std::string& path) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t r = ::pwrite(fd, p, n, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("write", path));
    }
    p += r;
    n -= static_cast<size_t>(r);
    off += r;
  }
  return Status::OK();
}

// XXH64's primes.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;

uint64_t Rotl(uint64_t v, int r) { return (v << r) | (v >> (64 - r)); }

uint64_t LoadWord(const unsigned char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kPrime2, 31) * kPrime1;
}

// Folds one word into the running hash.
uint64_t Fold(uint64_t h, uint64_t word) {
  return Rotl(h ^ Round(0, word), 27) * kPrime1 + kPrime4;
}

/// Data-page checksum: an XXH64-style hash over 8-byte words, portable
/// (memcpy loads, no intrinsics) and about an order of magnitude faster
/// than byte-serial FNV-1a. Four independent multiply-rotate lanes take
/// 32-byte stripes; leftover words, then the zero-padded tail bytes, fold
/// into the merged hash, which a final avalanche mixes.
///
/// Every step is a bijection of the state given the word it consumes (an
/// odd multiply, an add, a rotate, an xor), and a bijection of the word
/// given the state; lanes merge by a sum, the avalanche is invertible. So
/// the map from any one 8-byte word (or the tail) to the checksum, all
/// other bytes fixed, is a bijection: a change confined to one word is
/// always detected, not merely with high probability.
uint64_t PageChecksum(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  uint64_t h = kPrime3;
  if (n >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, LoadWord(p));
      v2 = Round(v2, LoadWord(p + 8));
      v3 = Round(v3, LoadWord(p + 16));
      v4 = Round(v4, LoadWord(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
  }
  h += n;
  for (; end - p >= 8; p += 8) h = Fold(h, LoadWord(p));
  if (p < end) {
    uint64_t tail = 0;
    std::memcpy(&tail, p, static_cast<size_t>(end - p));
    h = Fold(h, tail);
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t NextPagerId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

uint64_t StorageChecksum(const void* data, size_t n, uint64_t seed) {
  // FNV-1a 64, offset basis xored with the seed so independent streams
  // (header vs. pages vs. manifest) cannot collide trivially.
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

Pager::Pager(std::string path, int fd, int64_t page_bytes, uint64_t page_count)
    : path_(std::move(path)),
      fd_(fd),
      page_bytes_(page_bytes),
      id_(NextPagerId()),
      page_count_(page_count) {}

Pager::~Pager() { ::close(fd_); }

uint64_t Pager::page_count() const {
  MutexLock lock(mu_);
  return page_count_;
}

Result<std::shared_ptr<Pager>> Pager::Create(const std::string& path,
                                             int64_t page_bytes) {
  if (page_bytes < kMinPageBytes) {
    return Status::Invalid("page size " + std::to_string(page_bytes) +
                           " below the minimum of " +
                           std::to_string(kMinPageBytes));
  }
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError(Errno("create", path));
  std::shared_ptr<Pager> pager(new Pager(path, fd, page_bytes, 0));
  {
    MutexLock lock(pager->mu_);
    RMA_RETURN_NOT_OK(pager->WriteHeaderLocked());
  }
  return pager;
}

Result<std::shared_ptr<Pager>> Pager::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return Status::IoError(Errno("open", path));
  uint64_t header[kHeaderFields + 1];
  Status st = FullPread(fd, header, kHeaderBytes, 0, path);
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  const uint64_t sum =
      StorageChecksum(header, kHeaderFields * sizeof(uint64_t));
  if (header[kHeaderFields] != sum) {
    ::close(fd);
    return Status::IoError("open " + path + ": header checksum mismatch");
  }
  if (header[0] != kMagic) {
    ::close(fd);
    return Status::IoError("open " + path + ": not an rma page file");
  }
  if (header[1] != kFormatVersion) {
    ::close(fd);
    return Status::NotImplemented("open " + path +
                                  ": unsupported format version " +
                                  std::to_string(header[1]));
  }
  const auto page_bytes = static_cast<int64_t>(header[2]);
  if (page_bytes < kMinPageBytes) {
    ::close(fd);
    return Status::IoError("open " + path + ": corrupt page size");
  }
  // Every page the header commits must exist in full: a SIGKILL between
  // data writes and Sync leaves the previous header (fine), but external
  // truncation would otherwise only surface on first read.
  struct stat file_info {};
  if (::fstat(fd, &file_info) != 0) {
    const Status es = Status::IoError(Errno("stat", path));
    ::close(fd);
    return es;
  }
  if (file_info.st_size < static_cast<off_t>((header[3] + 1) *
                                      static_cast<uint64_t>(page_bytes))) {
    ::close(fd);
    return Status::IoError("open " + path +
                           ": file shorter than committed page count "
                           "(truncated write)");
  }
  return std::shared_ptr<Pager>(new Pager(path, fd, page_bytes, header[3]));
}

Status Pager::WriteHeaderLocked() {
  uint64_t header[kHeaderFields + 1];
  header[0] = kMagic;
  header[1] = kFormatVersion;
  header[2] = static_cast<uint64_t>(page_bytes_);
  header[3] = page_count_;
  header[kHeaderFields] =
      StorageChecksum(header, kHeaderFields * sizeof(uint64_t));
  return FullPwrite(fd_, header, kHeaderBytes, 0, path_);
}

Result<uint64_t> Pager::AllocateExtent(uint64_t n_pages) {
  if (n_pages == 0) return Status::Invalid("empty extent");
  MutexLock lock(mu_);
  const uint64_t first = page_count_ + 1;
  page_count_ += n_pages;
  return first;
}

Status Pager::ReadPage(uint64_t page, void* payload) const {
  {
    MutexLock lock(mu_);
    if (page == 0 || page > page_count_) {
      return Status::OutOfRange("read " + path_ + ": page " +
                                std::to_string(page) + " of " +
                                std::to_string(page_count_));
    }
  }
  std::vector<char> buf(static_cast<size_t>(page_bytes_));
  RMA_RETURN_NOT_OK(FullPread(fd_, buf.data(), buf.size(),
                              static_cast<int64_t>(page) * page_bytes_,
                              path_));
  uint64_t stored_sum = 0;
  uint64_t stored_id = 0;
  std::memcpy(&stored_sum, buf.data(), sizeof(uint64_t));
  std::memcpy(&stored_id, buf.data() + sizeof(uint64_t), sizeof(uint64_t));
  const uint64_t sum = PageChecksum(buf.data() + sizeof(uint64_t),
                                    buf.size() - sizeof(uint64_t));
  if (stored_sum != sum || stored_id != page) {
    return Status::IoError("read " + path_ + ": page " + std::to_string(page) +
                           " checksum mismatch (torn or misdirected write)");
  }
  std::memcpy(payload, buf.data() + kPageHeaderBytes,
              static_cast<size_t>(payload_bytes()));
  return Status::OK();
}

Status Pager::WritePage(uint64_t page, const void* payload) {
  {
    MutexLock lock(mu_);
    if (page == 0 || page > page_count_) {
      return Status::OutOfRange("write " + path_ + ": page " +
                                std::to_string(page) + " of " +
                                std::to_string(page_count_));
    }
  }
  std::vector<char> buf(static_cast<size_t>(page_bytes_));
  const uint64_t id = page;
  std::memcpy(buf.data() + sizeof(uint64_t), &id, sizeof(uint64_t));
  std::memcpy(buf.data() + kPageHeaderBytes, payload,
              static_cast<size_t>(payload_bytes()));
  const uint64_t sum = PageChecksum(buf.data() + sizeof(uint64_t),
                                    buf.size() - sizeof(uint64_t));
  std::memcpy(buf.data(), &sum, sizeof(uint64_t));
  return FullPwrite(fd_, buf.data(), buf.size(),
                    static_cast<int64_t>(page) * page_bytes_, path_);
}

Status Pager::Sync() {
  // Data first, then the header whose page count commits the allocation:
  // a crash between the two leaves the old header describing only pages
  // that were fully written and synced.
  if (::fdatasync(fd_) != 0) return Status::IoError(Errno("fsync", path_));
  MutexLock lock(mu_);
  RMA_RETURN_NOT_OK(WriteHeaderLocked());
  if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync", path_));
  return Status::OK();
}

}  // namespace rma
