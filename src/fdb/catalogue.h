// Store catalogue: the administrative view of the field store.
//
// FDB5 ships listing/inspection tools alongside its archive/retrieve API;
// this is their equivalent for the DAOS-backed layout: enumerate forecasts
// from the main index, enumerate the fields of a forecast from its index
// Key-Value, and report per-forecast size statistics.  Works for the "full"
// and "no containers" modes (the "no index" mode keeps no index to list, by
// construction — listing it returns `unsupported`).
#pragma once

#include <string>
#include <vector>

#include "daos/client.h"
#include "fdb/field_io.h"

namespace nws::fdb {

struct FieldEntry {
  std::string field_key;    // least-significant key part
  daos::ObjectId array;     // current array object id
  Bytes size = 0;           // stored field size
};

struct ForecastEntry {
  std::string forecast_key;  // most-significant key part
  std::size_t field_count = 0;
  Bytes total_bytes = 0;
};

class Catalogue {
 public:
  Catalogue(daos::Client& client, FieldIoConfig config);

  sim::Task<Status> init();

  /// Retry attempts the catalogue's operations needed (fault injection);
  /// mirrors FieldIoStats::retries.  Listing and purge run under the same
  /// RetryPolicy as FieldIo (config.retry), so administrative sweeps survive
  /// injected target outages too.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }

  /// Forecasts registered in the main index, with field counts and sizes.
  sim::Task<Result<std::vector<ForecastEntry>>> list_forecasts();

  /// Fields of one forecast (by most-significant key part).
  sim::Task<Result<std::vector<FieldEntry>>> list_fields(const std::string& forecast_key);

  /// Fields of one forecast as of committed publication `epoch`
  /// (kEpochLatest: newest committed).  Snapshot handles are held for the
  /// duration of the listing — index pinned before store, mirroring
  /// FieldIo::pin_snapshot — so concurrent re-writes never tear the view;
  /// a de-referenced-then-pruned array degrades to a not_found error, not a
  /// stale size.  Requires the container's retention policy to allow
  /// snapshots (ModelConfig::epoch_retention_depth > 0).
  sim::Task<Result<std::vector<FieldEntry>>> list_fields_at(const std::string& forecast_key,
                                                            daos::Epoch epoch = daos::kEpochLatest);

  /// Total bytes currently referenced by live field entries (de-referenced
  /// arrays from re-writes are excluded — they are garbage the store keeps
  /// by design, paper Section 4).
  sim::Task<Result<Bytes>> referenced_bytes();

  struct PurgeReport {
    std::size_t arrays_destroyed = 0;
    Bytes bytes_reclaimed = 0;
  };

  /// Destroys the de-referenced arrays of one forecast (the orphans
  /// re-writes leave behind), reclaiming their pool capacity — the
  /// operational complement of the store's no-delete write path.
  sim::Task<Result<PurgeReport>> purge(const std::string& forecast_key);

 private:
  sim::Task<Result<std::vector<FieldEntry>>> fields_of(const std::string& forecast_key,
                                                       daos::ContHandle index_cont,
                                                       daos::ContHandle store_cont);

  daos::Client& client_;
  FieldIoConfig config_;
  /// Drives config_.retry over client_ (daos/retry.h); counts into retries_.
  daos::Retrier retrier_;
  std::uint64_t retries_ = 0;
  bool initialised_ = false;
  daos::ContHandle main_cont_;
  daos::KvHandle main_kv_;
};

}  // namespace nws::fdb
