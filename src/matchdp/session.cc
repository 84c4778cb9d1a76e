#include "matchdp/session.h"

namespace kvmatch {

namespace {
std::string IndexNs(const std::string& ns, size_t w) {
  return ns + "idx/w" + std::to_string(w) + "/";
}
std::string DataNs(const std::string& ns) { return ns + "data/"; }
}  // namespace

Status Session::FinishInit(Options options) {
  (void)options;
  prefix_ = PrefixStats(series_);  // a view: arrays are built on first use
  index_ptrs_.clear();
  for (const auto& index : indexes_) index_ptrs_.push_back(&index);
  matcher_ = std::make_unique<KvMatchDp>(series_, prefix_, index_ptrs_);
  return Status::OK();
}

Result<std::unique_ptr<Session>> Session::FromSeries(TimeSeries series,
                                                     Options options) {
  if (series.size() < options.wu) {
    return Status::InvalidArgument("series shorter than smallest window");
  }
  auto session = std::unique_ptr<Session>(new Session());
  session->series_ = std::move(series);
  session->indexes_ = BuildIndexSet(session->series_, options.wu,
                                    options.levels, options.width);
  KVMATCH_RETURN_NOT_OK(session->FinishInit(options));
  return session;
}

Result<std::unique_ptr<Session>> Session::Ingest(KvStore* store,
                                                 const std::string& ns,
                                                 TimeSeries series,
                                                 Options options) {
  auto session = FromSeries(std::move(series), options);
  if (!session.ok()) return session.status();
  KVMATCH_RETURN_NOT_OK(SeriesStore::Write(store, (*session)->series_,
                                           DataNs(ns), options.series_chunk));
  for (const auto& index : (*session)->indexes_) {
    KVMATCH_RETURN_NOT_OK(index.Persist(store, IndexNs(ns, index.window())));
  }
  return session;
}

Result<std::unique_ptr<Session>> Session::Open(const KvStore* store,
                                               const std::string& ns,
                                               Options options) {
  auto series_store = SeriesStore::Open(store, DataNs(ns));
  if (!series_store.ok()) return series_store.status();
  auto series = series_store->ReadAll();
  if (!series.ok()) return series.status();

  auto session = std::unique_ptr<Session>(new Session());
  session->series_ = std::move(series).value();
  size_t w = options.wu;
  for (size_t level = 0; level < options.levels; ++level, w *= 2) {
    auto index = KvIndex::Open(store, IndexNs(ns, w));
    if (!index.ok()) return index.status();
    if (options.row_cache_rows > 0) {
      index->EnableRowCache(options.row_cache_rows);
    }
    session->indexes_.push_back(std::move(index).value());
  }
  KVMATCH_RETURN_NOT_OK(session->FinishInit(options));
  return session;
}

Result<std::vector<MatchResult>> Session::Query(std::span<const double> q,
                                                const QueryParams& params,
                                                MatchStats* stats,
                                                const ExecContext& ctx) const {
  return matcher_->Match(q, params, stats, MatchOptions(), ctx);
}

Result<std::vector<MatchResult>> Session::QueryTopK(
    std::span<const double> q, const QueryParams& params, size_t k,
    const TopKOptions& options, MatchStats* stats,
    const ExecContext& ctx) const {
  return matcher_->MatchTopK(q, params, k, options, stats, MatchOptions(),
                             ctx);
}

Result<std::unique_ptr<QueryExecutor>> Session::MakeExecutor(
    std::span<const double> q, const QueryParams& params,
    const MatchOptions& options) const {
  return matcher_->MakeExecutor(q, params, options);
}

uint64_t Session::IndexBytes() const {
  uint64_t bytes = 0;
  for (const auto& index : indexes_) bytes += index.EncodedSizeBytes();
  return bytes;
}

uint64_t Session::MemoryBytes() const {
  // Series values, plus the two prefix-sum arrays (n + 1 doubles each)
  // once the first cNSM query has built them.
  uint64_t bytes = 8 * static_cast<uint64_t>(series_.size());
  bytes += prefix_.MemoryBytes();
  bytes += IndexBytes();
  // For store-backed indexes IndexBytes is meta-only; the warmed row
  // caches are the dominant resident state, so count them too.
  for (const auto& index : indexes_) bytes += index.RowCacheBytes();
  return bytes;
}

}  // namespace kvmatch
