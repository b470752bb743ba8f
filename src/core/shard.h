#ifndef RMA_CORE_SHARD_H_
#define RMA_CORE_SHARD_H_

#include <cstdint>
#include <vector>

namespace rma {

/// One row-range shard of an operation's input: shard id and the half-open
/// row range of every application column it reads. This is the complete
/// description of a shard's input — deliberately free of pointers
/// into the executing process — so the same contract can later describe a
/// shard living in another NUMA pool or process (see docs/ARCHITECTURE.md,
/// "Sharded stage execution"). In-process execution reads the spec's row
/// range of the stored columns through the prepared permutation.
struct ShardSpec {
  int shard = 0;       ///< shard id in [0, total shards)
  int64_t begin = 0;   ///< first row (inclusive)
  int64_t end = 0;     ///< past-the-end row

  int64_t rows() const { return end - begin; }
};

/// Splits `rows` into `shards` contiguous balanced ranges (the first
/// `rows % shards` ranges hold one extra row). shards must be >= 1; empty
/// ranges never occur for rows >= shards.
std::vector<ShardSpec> MakeShardSpecs(int64_t rows, int shards);

}  // namespace rma

#endif  // RMA_CORE_SHARD_H_
