#include "matchdp/kv_match_dp.h"

namespace kvmatch {

Result<std::unique_ptr<QueryExecutor>> KvMatchDp::MakeExecutor(
    std::span<const double> q, const QueryParams& params,
    const MatchOptions& options) const {
  auto sg = SegmentQuery(q, params, indexes_);
  if (!sg.ok()) return sg.status();

  std::vector<QuerySegment> segments;
  segments.reserve(sg->lengths.size());
  size_t offset = 0;
  for (size_t len : sg->lengths) {
    const KvIndex* index = nullptr;
    for (const auto* idx : indexes_) {
      if (idx->window() == len) index = idx;
    }
    if (index == nullptr) return Status::Internal("no index for segment");
    segments.push_back({index, offset, len});
    offset += len;
  }
  return QueryExecutor::Create(series_, prefix_, q, params,
                               std::move(segments), options);
}

Result<std::vector<MatchResult>> KvMatchDp::Match(
    std::span<const double> q, const QueryParams& params, MatchStats* stats,
    const MatchOptions& options, const ExecContext& ctx) const {
  auto executor = MakeExecutor(q, params, options);
  if (!executor.ok()) return executor.status();
  return (*executor)->Run(ctx, stats);
}

Result<std::vector<MatchResult>> KvMatchDp::MatchTopK(
    std::span<const double> q, const QueryParams& params, size_t k,
    const TopKOptions& topk, MatchStats* stats, const MatchOptions& options,
    const ExecContext& ctx) const {
  if (k == 0) return std::vector<MatchResult>{};
  auto executor = MakeExecutor(q, params, options);
  if (!executor.ok()) return executor.status();
  if (Status st = (*executor)->StartTopK(k, topk, ctx); !st.ok()) {
    if (stats != nullptr) stats->Add((*executor)->stats());
    return st;
  }
  return (*executor)->Run(ctx, stats);
}

}  // namespace kvmatch
