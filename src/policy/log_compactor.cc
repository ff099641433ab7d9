#include "policy/log_compactor.h"

#include <chrono>
#include <unordered_set>

#include "exec/executor.h"
#include "common/trace.h"

namespace datalawyer {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Result<std::map<std::string, std::set<int64_t>>> LogCompactor::Mark(
    const std::vector<const WitnessSet*>& witnesses, const CatalogView* base,
    int64_t now, std::set<std::string>* keep_all,
    const std::set<std::string>& skip_retention, ScanStats* scans) {
  std::map<std::string, std::set<int64_t>> keep;
  for (const std::string& name : log_->RelationNamesInOrder()) {
    keep[name];  // default: retain nothing unless a witness asks for it
  }

  // Catalog for the witness queries: base + log(∪ increment) + dl_now.
  UsageLog::PolicyCatalog catalog = log_->MakeCatalog(base, now);
  TableSchema now_schema;
  now_schema.AddColumn("ts", ValueType::kInt64);
  OwnedRelation now_rel(std::move(now_schema), {{Value(now)}});
  catalog.catalog->Add(WitnessBuilder::NowRelationName(), &now_rel);

  for (const WitnessSet* set : witnesses) {
    for (const auto& [name, witness] : set->per_relation) {
      if (!log_->IsLogRelation(name)) continue;
      if (skip_retention.count(name)) continue;
      if (witness.full_fallback) {
        keep_all->insert(name);
        continue;
      }
      for (const auto& query : witness.queries) {
        ExecOptions options = options_;
        options.capture_lineage = true;
        Executor executor(catalog.view(), options);
        DL_ASSIGN_OR_RETURN(QueryResult result, executor.Execute(*query));
        if (scans != nullptr) {
          scans->index_probes += executor.scan_stats().index_probes;
          scans->index_hits += executor.scan_stats().index_hits;
        }
        // Map the relation name to its lineage index, if it was scanned.
        int rel_idx = -1;
        for (size_t i = 0; i < result.base_relations.size(); ++i) {
          if (result.base_relations[i] == name) rel_idx = int(i);
        }
        if (rel_idx < 0) continue;
        std::set<int64_t>& ids = keep[name];
        for (const LineageSet& lineage : result.lineage) {
          for (const LineageEntry& entry : lineage) {
            if (int(entry.rel) == rel_idx) ids.insert(entry.row_id);
          }
        }
      }
    }
  }
  return keep;
}

Result<CompactionStats> LogCompactor::CompactAndFlush(
    const std::vector<const WitnessSet*>& witnesses, const CatalogView* base,
    int64_t now, const std::set<std::string>& skip_retention) {
  CompactionStats stats;
  DL_TRACE_SPAN("compact.flush", "policy");

  // ---- mark ----
  auto t0 = std::chrono::steady_clock::now();
  std::set<std::string> keep_all;
  ScanStats scans;
  std::map<std::string, std::set<int64_t>> keep;
  {
    DL_TRACE_SPAN("compact.mark", "policy");
    DL_ASSIGN_OR_RETURN(
        keep, Mark(witnesses, base, now, &keep_all, skip_retention, &scans));
  }
  stats.mark_ms = MsSince(t0);
  stats.index_probes = scans.index_probes;
  stats.index_hits = scans.index_hits;

  // ---- delete (persisted log) ----
  t0 = std::chrono::steady_clock::now();
  {
    DL_TRACE_SPAN("compact.delete", "policy");
    for (const auto& [name, ids] : keep) {
      if (keep_all.count(name)) continue;
      Table* main = log_->main_table(name);
      std::unordered_set<int64_t> main_keep;
      for (int64_t id : ids) {
        if (!ConcatRelation::IsFromSecond(id)) main_keep.insert(id);
      }
      stats.rows_deleted += main->RetainOnly(main_keep);
    }
  }
  stats.delete_ms = MsSince(t0);

  // ---- insert (surviving increment rows) ----
  t0 = std::chrono::steady_clock::now();
  DL_TRACE_SPAN("compact.insert", "policy");
  for (const auto& [name, ids] : keep) {
    Table* main = log_->main_table(name);
    Table* delta = log_->delta_table(name);
    if (!log_->IsPersisted(name)) {
      stats.rows_dropped_from_delta += delta->NumRows();
      continue;
    }
    bool all = keep_all.count(name) > 0;
    std::unordered_set<int64_t> delta_keep;
    if (!all) {
      for (int64_t id : ids) {
        if (ConcatRelation::IsFromSecond(id)) {
          delta_keep.insert(ConcatRelation::SecondRowId(id));
        }
      }
    }
    for (size_t i = 0; i < delta->NumRows(); ++i) {
      if (all || delta_keep.count(delta->RowIdAt(i))) {
        // Schemas match by construction; Append cannot fail.
        (void)main->Append(delta->RowAt(i));
        ++stats.rows_inserted;
      } else {
        ++stats.rows_dropped_from_delta;
      }
    }
  }
  log_->DiscardStaged();  // clears deltas and per-query generation flags
  // The delete phase invalidated main-table indexes; restore them while the
  // compactor still owns the tables (no reader can be probing concurrently).
  log_->RefreshIndexes();
  stats.insert_ms = MsSince(t0);
  return stats;
}

}  // namespace datalawyer
