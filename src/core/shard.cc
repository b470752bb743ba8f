#include "core/shard.h"

#include "util/logging.h"

namespace rma {

std::vector<ShardSpec> MakeShardSpecs(int64_t rows, int shards) {
  RMA_CHECK(rows >= 0 && shards >= 1);
  std::vector<ShardSpec> specs(static_cast<size_t>(shards));
  const int64_t base = rows / shards;
  const int64_t extra = rows % shards;
  int64_t begin = 0;
  for (int s = 0; s < shards; ++s) {
    ShardSpec& spec = specs[static_cast<size_t>(s)];
    spec.shard = s;
    spec.begin = begin;
    spec.end = begin + base + (s < extra ? 1 : 0);
    begin = spec.end;
  }
  return specs;
}

}  // namespace rma
