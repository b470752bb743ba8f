// Out-of-core storage tier: pager checksums, buffer-pool eviction, durable
// catalog recovery, and paged-vs-malloc result parity.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/rma.h"
#include "rel/operators.h"
#include "sql/database.h"
#include "storage/buffer_pool.h"
#include "storage/paged_bat.h"
#include "storage/paged_store.h"
#include "storage/pager.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace rma {
namespace {

/// Flips one byte at `offset` of `path` (simulates a torn or bit-rotted
/// write that fsync ordering cannot prevent).
void CorruptByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

/// Flips bit `bit` of the byte at `offset` of `path`.
void CorruptBit(const std::string& path, long offset, int bit) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ (1 << bit), f);
  std::fclose(f);
}

/// Rewrites the header of the page file at `path` as format version 1,
/// with a valid header checksum.
void StampVersion1(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint64_t header[5];
  ASSERT_EQ(std::fread(header, sizeof(header), 1, f), 1u);
  header[1] = 1;
  header[4] = StorageChecksum(header, 4 * sizeof(uint64_t));
  ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(header, sizeof(header), 1, f), 1u);
  std::fclose(f);
}

TEST(Pager, RoundTripAndReopen) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  const std::string path = dir + "/t.col";
  const int64_t page_bytes = 4096;
  uint64_t first = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                         Pager::Create(path, page_bytes));
    EXPECT_EQ(pager->page_count(), 0u);
    ASSERT_OK_AND_ASSIGN(first, pager->AllocateExtent(3));
    std::vector<char> page(static_cast<size_t>(pager->payload_bytes()));
    for (uint64_t p = 0; p < 3; ++p) {
      std::memset(page.data(), static_cast<int>('a' + p), page.size());
      ASSERT_OK(pager->WritePage(first + p, page.data()));
    }
    ASSERT_OK(pager->Sync());
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager, Pager::Open(path));
  EXPECT_EQ(pager->page_bytes(), page_bytes);
  EXPECT_EQ(pager->page_count(), 3u);
  std::vector<char> page(static_cast<size_t>(pager->payload_bytes()));
  ASSERT_OK(pager->ReadPage(first + 1, page.data()));
  EXPECT_EQ(page[0], 'b');
  EXPECT_EQ(page[page.size() - 1], 'b');
}

TEST(Pager, ChecksumRejectsCorruptPage) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  const std::string path = dir + "/t.col";
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                       Pager::Create(path, 1024));
  ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(1));
  std::vector<char> page(static_cast<size_t>(pager->payload_bytes()), 'x');
  ASSERT_OK(pager->WritePage(first, page.data()));
  ASSERT_OK(pager->Sync());
  // Corrupt one payload byte in the middle of the (only) data page; the
  // file layout is [header page][data page...].
  CorruptByte(path, 1024 + 512);
  const Status st = pager->ReadPage(first, page.data());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();
}

TEST(Pager, OpenRefusesFormatVersion1) {
  // A version 1 file (byte-serial page checksums) with a valid header: the
  // header checksum passes, so Open must refuse it by its version, not call
  // it corrupt.
  const testing::TempDirectory tmp;
  const std::string path = tmp.path + "/v1.col";
  const int64_t page_bytes = 1024;
  uint64_t header[5] = {Pager::kMagic, 1, static_cast<uint64_t>(page_bytes), 0,
                        0};
  header[4] = StorageChecksum(header, 4 * sizeof(uint64_t));
  std::vector<char> page(static_cast<size_t>(page_bytes), 0);
  std::memcpy(page.data(), header, sizeof(header));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(page.data(), 1, page.size(), f), page.size());
  std::fclose(f);
  const auto opened = Pager::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("unsupported format version 1"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(Pager, ChecksumDetectsEveryOneWordFlip) {
  // A page size whose checksummed span (page id + payload) ends in 3 tail
  // bytes. Flipping one bit of any 8-byte word of the page, or of any tail
  // byte, must fail the pin, and restoring it must make the page readable.
  const testing::TempDirectory tmp;
  const std::string path = tmp.path + "/t.col";
  const int64_t page_bytes = 1035;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                       Pager::Create(path, page_bytes));
  ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(1));
  std::vector<char> payload(static_cast<size_t>(pager->payload_bytes()));
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 + 7);
  }
  ASSERT_OK(pager->WritePage(first, payload.data()));
  ASSERT_OK(pager->Sync());
  BufferPool pool(4 * page_bytes);
  const long page_start = static_cast<long>(first) * page_bytes;
  std::vector<long> offsets;
  for (long w = 0; w + 8 <= page_bytes; w += 8) {
    offsets.push_back(w + w / 8 % 8);  // a different byte of each word
  }
  for (long t = page_bytes / 8 * 8; t < page_bytes; ++t) offsets.push_back(t);
  ASSERT_EQ(offsets.size(), 129u + 3u);
  for (const long off : offsets) {
    SCOPED_TRACE("byte " + std::to_string(off));
    CorruptBit(path, page_start + off, static_cast<int>(off % 8));
    const auto bad = pool.Pin(pager, first, 1, pager->payload_bytes());
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
        << bad.status().ToString();
    CorruptBit(path, page_start + off, static_cast<int>(off % 8));
  }
  ASSERT_OK_AND_ASSIGN(PinnedExtent good,
                       pool.Pin(pager, first, 1, pager->payload_bytes()));
  EXPECT_EQ(std::memcmp(good.data(), payload.data(), payload.size()), 0);
}

TEST(Pager, OpenRejectsTruncatedFile) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  const std::string path = dir + "/t.col";
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<Pager> pager,
                         Pager::Create(path, 1024));
    ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(4));
    std::vector<char> page(static_cast<size_t>(pager->payload_bytes()), 'y');
    for (uint64_t p = 0; p < 4; ++p) {
      ASSERT_OK(pager->WritePage(first + p, page.data()));
    }
    ASSERT_OK(pager->Sync());
  }
  // A kill mid-write can leave the header's committed page count pointing
  // past the file end; Open must refuse rather than serve short reads.
  ASSERT_EQ(truncate(path.c_str(), 3 * 1024), 0);
  const auto reopened = Pager::Open(path);
  EXPECT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("truncated"), std::string::npos)
      << reopened.status().ToString();
}

TEST(BufferPool, HitMissEvictionStats) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  const int64_t page_bytes = 1024;
  const int64_t payload = page_bytes - Pager::kPageHeaderBytes;
  // Pool holds exactly two one-page frames.
  BufferPool pool(2 * page_bytes);
  std::vector<std::shared_ptr<Pager>> pagers;
  std::vector<uint64_t> firsts;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(
        std::shared_ptr<Pager> pager,
        Pager::Create(dir + "/p" + std::to_string(i) + ".col", page_bytes));
    ASSERT_OK_AND_ASSIGN(const uint64_t first, pager->AllocateExtent(1));
    std::vector<char> page(static_cast<size_t>(payload),
                           static_cast<char>('0' + i));
    ASSERT_OK(pager->WritePage(first, page.data()));
    ASSERT_OK(pager->Sync());
    pagers.push_back(std::move(pager));
    firsts.push_back(first);
  }
  {
    ASSERT_OK_AND_ASSIGN(PinnedExtent a,
                         pool.Pin(pagers[0], firsts[0], 1, payload));
    EXPECT_EQ(a.data()[0], '0');
  }
  {
    // Re-pin: resident, counts a hit.
    ASSERT_OK_AND_ASSIGN(PinnedExtent a,
                         pool.Pin(pagers[0], firsts[0], 1, payload));
    ASSERT_OK_AND_ASSIGN(PinnedExtent b,
                         pool.Pin(pagers[1], firsts[1], 1, payload));
    // Third frame exceeds the budget; `a` and `b` are pinned, so the pool
    // overcommits rather than evicting them.
    ASSERT_OK_AND_ASSIGN(PinnedExtent c,
                         pool.Pin(pagers[2], firsts[2], 1, payload));
    EXPECT_EQ(c.data()[0], '2');
    const BufferPoolStats mid = pool.stats();
    EXPECT_EQ(mid.hits, 1);
    EXPECT_EQ(mid.misses, 3);
    EXPECT_GE(mid.overcommits, 1);
    EXPECT_EQ(mid.evictions, 0);
  }
  // All unpinned now; a fresh extent misses and evicts LRU frames down to
  // capacity.
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<Pager> extra,
      Pager::Create(dir + "/p3.col", page_bytes));
  ASSERT_OK_AND_ASSIGN(const uint64_t extra_first, extra->AllocateExtent(1));
  std::vector<char> page(static_cast<size_t>(payload), '3');
  ASSERT_OK(extra->WritePage(extra_first, page.data()));
  ASSERT_OK(extra->Sync());
  {
    ASSERT_OK_AND_ASSIGN(PinnedExtent d,
                         pool.Pin(extra, extra_first, 1, payload));
    EXPECT_EQ(d.data()[0], '3');
  }
  const BufferPoolStats end = pool.stats();
  EXPECT_GT(end.evictions, 0);
  EXPECT_LE(end.resident_bytes, pool.capacity_bytes());
  // An evicted extent re-reads correctly.
  ASSERT_OK_AND_ASSIGN(PinnedExtent again,
                       pool.Pin(pagers[2], firsts[2], 1, payload));
  EXPECT_EQ(again.data()[0], '2');
}

TEST(PagedStore, SaveReopenRoundTrip) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  const Relation r = workload::UniformRelation(500, 3, 11, 0.0, 100.0,
                                               /*sorted=*/false, "m");
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir));
    ASSERT_OK_AND_ASSIGN(const Relation stored, store->SaveTable("m", r));
    EXPECT_TRUE(RelationsEqualOrdered(r, stored, 0.0));
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir));
  ASSERT_EQ(store->recovered().size(), 1u);
  EXPECT_EQ(store->recovered()[0].first, "m");
  const Relation& back = store->recovered()[0].second;
  EXPECT_TRUE(RelationsEqualOrdered(r, back, 0.0));
  // Numeric columns come back paged: unstable until pinned.
  EXPECT_FALSE(back.column(1)->StableData());
}

TEST(PagedStore, RecoveryDiscardsTableWithMissingFile) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  std::string victim_file;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir));
    ASSERT_OK(store
                  ->SaveTable("keep", workload::UniformRelation(
                                          50, 1, 3, 0.0, 1.0, false, "keep"))
                  .status());
    ASSERT_OK(store
                  ->SaveTable("lose", workload::UniformRelation(
                                          50, 1, 4, 0.0, 1.0, false, "lose"))
                  .status());
  }
  // Delete one of the second table's column files: recovery must discard
  // exactly that table and keep the other.
  ASSERT_EQ(std::remove((dir + "/c3.col").c_str()), 0);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir));
  ASSERT_EQ(store->recovered().size(), 1u);
  EXPECT_EQ(store->recovered()[0].first, "keep");
}

TEST(Database, DurableCatalogSurvivesReopen) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  const Relation m = workload::UniformRelation(300, 2, 21, 0.0, 10.0,
                                               /*sorted=*/false, "m");
  {
    ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
    ASSERT_OK(db.Register("m", m));
    ASSERT_OK(db.Register("gone", testing::WeatherRelation()));
    ASSERT_OK(db.Drop("gone"));
  }
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
  EXPECT_FALSE(db.Has("gone"));
  ASSERT_OK_AND_ASSIGN(const Relation back, db.Get("m"));
  EXPECT_TRUE(RelationsEqualOrdered(m, back, 0.0));
  // SQL over the recovered (paged) table matches SQL over the original.
  sql::Database mem;
  ASSERT_OK(mem.Register("m", m));
  ASSERT_OK_AND_ASSIGN(const Relation paged_q,
                       db.Query("SELECT * FROM m WHERE a0 > 5"));
  ASSERT_OK_AND_ASSIGN(const Relation mem_q,
                       mem.Query("SELECT * FROM m WHERE a0 > 5"));
  EXPECT_TRUE(RelationsEqualOrdered(mem_q, paged_q, 0.0));
}

TEST(PagedStore, RefusesVersion1DirectoryWithoutDeletingIt) {
  // A data directory written by format version 1 is intact data this build
  // cannot read: Open must fail naming the version, and recovery must not
  // discard (delete) the tables as if they were torn.
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir));
    ASSERT_OK(store
                  ->SaveTable("m", workload::UniformRelation(50, 1, 3, 0.0,
                                                             1.0, false, "m"))
                  .status());
  }
  const std::string col = dir + "/c1.col";
  StampVersion1(col);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto reopened = PagedStore::Open(dir);
    ASSERT_FALSE(reopened.ok());
    EXPECT_NE(
        reopened.status().message().find("unsupported format version 1"),
        std::string::npos)
        << reopened.status().ToString();
    EXPECT_EQ(access(col.c_str(), F_OK), 0) << "column file was deleted";
  }
}

TEST(PagedStore, RefusesVersion1BeforeDiscardingDamagedTables) {
  // Table "a" is damaged (a column file is missing) and sorts before table
  // "m", which has a version 1 file. The version refusal must come first:
  // recovery may not delete "a"'s remaining files on the way to it.
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                         PagedStore::Open(dir));
    ASSERT_OK(store
                  ->SaveTable("a", workload::UniformRelation(50, 1, 3, 0.0,
                                                             1.0, false, "a"))
                  .status());
    ASSERT_OK(store
                  ->SaveTable("m", workload::UniformRelation(50, 1, 3, 0.0,
                                                             1.0, false, "m"))
                  .status());
  }
  ASSERT_EQ(std::remove((dir + "/c2.col").c_str()), 0);
  StampVersion1(dir + "/c3.col");
  const auto reopened = PagedStore::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsNotImplemented())
      << reopened.status().ToString();
  EXPECT_EQ(access((dir + "/c1.col").c_str(), F_OK), 0)
      << "a damaged table's file was deleted";
}

TEST(Database, CorruptPageSurfacesAsIoError) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  {
    ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
    ASSERT_OK(db.Register("m", workload::UniformRelation(2000, 1, 5, 0.0, 1.0,
                                                         false, "m")));
  }
  // Corrupt a payload byte of the double column (file c2.col: id is c1).
  // The page checksum catches it at pin time and the statement fails with
  // IoError instead of returning wrong data.
  CorruptByte(dir + "/c2.col", Pager::kDefaultPageBytes + 256);
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir));
  const auto q = db.Query("SELECT * FROM m");
  EXPECT_STATUS(kIoError, q);
  EXPECT_NE(q.status().message().find("checksum"), std::string::npos)
      << q.status().ToString();
}

/// Fig. 13-shaped parity check: `add` and `qqr` over a dataset about twice
/// the pool budget must run eviction traffic and still produce bit-identical
/// results to the malloc-backed baseline.
TEST(Database, PagedVsMallocBitIdenticalUnderEviction) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  const int64_t rows = 20000;
  const Relation r =
      workload::ManyOrderColumnsRelation(rows, 3, 7, 11, "r");
  std::vector<std::string> order;
  for (int c = 0; c < 3; ++c) order.push_back("o" + std::to_string(c));

  // Budget ~half the table bytes so pin traffic must evict.
  PagedStoreOptions opts;
  opts.pool_bytes = r.ByteSize() / 2;
  opts.page_bytes = 16 * 1024;
  ASSERT_OK_AND_ASSIGN(sql::Database db, sql::Database::Open(dir, opts));
  ASSERT_OK(db.Register("r", r));
  ASSERT_OK_AND_ASSIGN(const Relation paged, db.Get("r"));
  EXPECT_FALSE(paged.column(3)->StableData());

  // `add` needs disjoint order-schema names; alias the second operand.
  const std::vector<std::string> renamed = {"p0", "p1", "p2", "val"};
  std::vector<std::string> order_s(renamed.begin(), renamed.end() - 1);
  ASSERT_OK_AND_ASSIGN(const Relation s, rel::RenameAll(r, renamed));
  ASSERT_OK_AND_ASSIGN(const Relation paged_s,
                       rel::RenameAll(paged, renamed));
  ASSERT_OK_AND_ASSIGN(const Relation base_add, Add(r, order, s, order_s));
  ASSERT_OK_AND_ASSIGN(const Relation paged_add,
                       Add(paged, order, paged_s, order_s));
  EXPECT_TRUE(RelationsEqualOrdered(base_add, paged_add, 0.0));

  ASSERT_OK_AND_ASSIGN(const Relation base_qqr, Qqr(r, order));
  ASSERT_OK_AND_ASSIGN(const Relation paged_qqr, Qqr(paged, order));
  EXPECT_TRUE(RelationsEqualOrdered(base_qqr, paged_qqr, 0.0));

  const BufferPoolStats stats = db.paged_store()->pool()->stats();
  EXPECT_GT(stats.evictions, 0) << "pool never evicted; shrink pool_bytes";
  EXPECT_GT(stats.misses, 0);
}

/// Eviction stress with concurrent readers over one store-backed table:
/// transient pins from row accessors race with whole-column pins while the
/// pool thrashes. Run under TSan in the nightly job.
TEST(BufferPool, ConcurrentReadsUnderEvictionPressure) {
  const testing::TempDirectory tmp;
  const std::string& dir = tmp.path;
  const int64_t rows = 8000;
  const Relation r =
      workload::UniformRelation(rows, 4, 17, 0.0, 1.0, false, "m");
  PagedStoreOptions opts;
  opts.pool_bytes = r.ByteSize() / 3;
  opts.page_bytes = 8 * 1024;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<PagedStore> store,
                       PagedStore::Open(dir, opts));
  ASSERT_OK_AND_ASSIGN(const Relation paged, store->SaveTable("m", r));

  std::vector<std::thread> threads;
  std::vector<double> pinned_sums(4, 0.0);
  std::vector<double> transient_sums(4, 0.0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Each thread scans one column twice: once via the pin bracket
      // (contiguous), once via transient per-row pins.
      const BatPtr& col = paged.column(t + 1);
      double sum = 0;
      if (col->PinData().ok()) {
        const double* d = col->ContiguousDoubleData();
        for (int64_t i = 0; i < rows; ++i) sum += d[i];
        col->UnpinData();
      }
      pinned_sums[static_cast<size_t>(t)] = sum;
      sum = 0;
      for (int64_t i = 0; i < rows; ++i) sum += col->GetDouble(i);
      transient_sums[static_cast<size_t>(t)] = sum;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    double expect = 0;
    const double* base = r.column(t + 1)->ContiguousDoubleData();
    for (int64_t i = 0; i < rows; ++i) expect += base[i];
    EXPECT_EQ(pinned_sums[static_cast<size_t>(t)], expect);
    EXPECT_EQ(transient_sums[static_cast<size_t>(t)], expect);
  }
  EXPECT_GT(store->pool()->stats().evictions, 0);
}

TEST(SliceMemo, LruBoundAndStabilityWithinBound) {
  const size_t previous = SetSliceIdentityMemoCapacity(8);
  const Relation r = workload::UniformRelation(64, 1, 1, 0.0, 1.0, false, "r");
  // Within the bound, repeated slicing of the same range is token-stable.
  EXPECT_EQ(r.SliceRows(0, 8).identity(), r.SliceRows(0, 8).identity());
  // Slicing more distinct ranges than the capacity keeps the memo bounded.
  for (int64_t b = 0; b < 32; ++b) r.SliceRows(b, 2);
  EXPECT_LE(SliceIdentityMemoSize(), size_t{8});
  // The early entry aged out: re-slicing mints a fresh (but still stable)
  // token.
  const uint64_t reminted = r.SliceRows(0, 8).identity();
  EXPECT_EQ(reminted, r.SliceRows(0, 8).identity());
  SetSliceIdentityMemoCapacity(previous);
}

}  // namespace
}  // namespace rma
