// Out-of-core storage tier: cold load (CSV-shaped relation -> paged files),
// warm pool scan, and an eviction-pressure scan with the pool sized to half
// the dataset, so every pass must re-fault about half its extents. The
// eviction-pressure row is the Fig. 13-adjacent case the tier exists for:
// column workloads larger than memory that still run the same staged
// kernels. Baseline at bench/baselines/bench_storage.json (scale 0.05).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sql/database.h"
#include "storage/buffer_pool.h"
#include "storage/paged_store.h"
#include "workload/synthetic.h"

namespace rma::bench {
namespace {

std::string TempDir() {
  char tmpl[] = "/tmp/rma_bench_storage_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  return dir;
}

void RemoveDirTree(const std::string& dir) {
  // Stores only ever hold flat c*.col + manifest files.
  const std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "warning: could not remove %s\n", dir.c_str());
  }
}

/// Receives each timed scan's sum, so the compiler cannot drop the reads.
volatile double scan_sink = 0;

/// Full sequential scan of every numeric column through the pin bracket —
/// the access pattern of a staged matrix op's gather stage.
double ScanOnce(const Relation& r) {
  double sum = 0;
  for (int c = 1; c < r.num_columns(); ++c) {
    const BatPtr& col = r.column(c);
    col->PinData().Abort();
    const double* d = col->ContiguousDoubleData();
    const int64_t n = col->size();
    for (int64_t i = 0; i < n; ++i) sum += d[i];
    col->UnpinData();
  }
  return sum;
}

void Run() {
  const int64_t rows = Scaled(400000);
  const int cols = 8;
  const Relation r =
      workload::UniformRelation(rows, cols, 42, 0.0, 1.0, false, "m");
  const int64_t data_bytes = r.ByteSize();
  const std::string shape =
      std::to_string(rows) + "x" + std::to_string(cols);

  PaperTable table("Storage tier: load and scan (" + shape + ")",
                   {"phase", "time", "pool", "evictions"});

  // Cold load: malloc relation -> page files (write-through + fsync).
  {
    const std::string dir = TempDir();
    double secs = 0;
    {
      auto store = PagedStore::Open(dir).ValueOrDie();
      secs = TimeIt([&] { store->SaveTable("m", r).ValueOrDie(); });
    }
    RemoveDirTree(dir);
    table.AddRow({"cold load", Secs(secs), "ample", "0"});
    BenchJson::Record("storage/cold_load", "save", shape, secs, data_bytes,
                      "");
  }

  // Warm scan: pool holds the whole table; repeated scans are pure hits.
  {
    const std::string dir = TempDir();
    PagedStoreOptions opts;
    opts.pool_bytes = 2 * data_bytes;
    auto store = PagedStore::Open(dir, opts).ValueOrDie();
    const Relation paged = store->SaveTable("m", r).ValueOrDie();
    ScanOnce(paged);  // fault everything in
    const double secs =
        TimeBest(BenchReps(3), [&] { scan_sink = ScanOnce(paged); });
    const BufferPoolStats stats = store->pool()->stats();
    table.AddRow({"warm scan", Secs(secs), "2x data",
                  std::to_string(stats.evictions)});
    BenchJson::Record("storage/warm_scan", "scan", shape, secs, data_bytes,
                      "");
    RemoveDirTree(dir);
  }

  // Eviction pressure: pool is half the dataset, every scan re-faults.
  {
    const std::string dir = TempDir();
    PagedStoreOptions opts;
    opts.pool_bytes = data_bytes / 2;
    auto store = PagedStore::Open(dir, opts).ValueOrDie();
    const Relation paged = store->SaveTable("m", r).ValueOrDie();
    ScanOnce(paged);
    const double secs =
        TimeBest(BenchReps(3), [&] { scan_sink = ScanOnce(paged); });
    const BufferPoolStats stats = store->pool()->stats();
    if (stats.evictions == 0) {
      std::fprintf(stderr,
                   "warning: eviction-pressure scan never evicted\n");
    }
    table.AddRow({"eviction-pressure scan", Secs(secs), "0.5x data",
                  std::to_string(stats.evictions)});
    BenchJson::Record("storage/eviction_scan", "scan", shape, secs,
                      data_bytes, "");
    RemoveDirTree(dir);
  }

  table.AddNote("warm scans are memory-speed (pool hits); the "
                "eviction-pressure scan pays page reads + checksums for "
                "about half its extents per pass");
  table.Print();
}

}  // namespace
}  // namespace rma::bench

int main(int argc, char** argv) {
  rma::bench::BenchJson::Init("bench_storage", &argc, argv);
  rma::bench::Run();
  return 0;
}
