// dashboard — writes beside reads on the attached store, no model. Two
// writer threads upsert a record stream built from the report-stream
// generator's gold annotations (restatements, withdrawals, and a tail of
// stale and repeated redeliveries), each writer owning a disjoint set of
// companies and calling Flush() every flush_every of its upserts. One
// reader thread runs a closed loop over a fixed query mix meanwhile. Each
// pass ends by re-opening the flushed store in a fresh ObjectiveDatabase.
//
// End-to-end: throughput_per_s = upserts / writer wall (seals included);
// secondary_per_s = dashboard refreshes per second, a refresh being one
// query of each kind back to back; p50_ms / p99_ms = refresh latency while
// the writers run.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/database.h"
#include "data/stream.h"
#include "storage/row.h"
#include "storage/segment.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using goalex::core::DbRow;
using goalex::core::ObjectiveDatabase;
using goalex::data::DetailRecord;

/// One upsert call.
struct Delivery {
  DetailRecord record;
  std::string company;
  std::string document;
  int page = 0;
  int64_t sequence = 0;
};

/// What the live row of one objective identity must hold at the end.
struct Expected {
  int32_t version = 0;
  int64_t sequence = -1;
  const Delivery* content = nullptr;
};

enum QueryKind { kText, kDeadlineRange, kCompanyCount, kCoverage, kKinds };
/// Span and metric-name stem of each query kind.
const char* const kQueryName[kKinds] = {
    "storage.query_text", "storage.query_deadline_range",
    "storage.query_company_count", "storage.query_coverage"};

/// One query of the mix with its parameters.
struct Query {
  QueryKind kind = kText;
  std::string term;
  goalex::core::TextFilter filter;
  int min_year = 0;
  int max_year = 0;
  std::string field;
};

struct Inputs {
  std::vector<Delivery> writer[2];
  std::map<std::string, Expected> expected;  ///< By upsert key.
  std::vector<Query> queries;
  int64_t upserts = 0;
};

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Gold-annotation records of one generated stream, companies prefixed so
/// several streams form one larger dashboard.
void AppendStream(const Params& params, uint64_t seed, int index,
                  std::vector<Delivery>* out) {
  goalex::data::ReportStreamConfig config;
  config.initial_companies = params.Int("stream_companies");
  config.years = params.Int("stream_years");
  config.initial_targets_per_company = params.Int("stream_targets");
  config.noise_blocks_per_report = 0;
  config.seed = seed;
  const std::string prefix = "S" + std::to_string(index) + " ";
  for (const goalex::data::TimedDocument& document :
       goalex::data::GenerateReportStream(config)) {
    const auto& blocks = document.report.blocks;
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (!blocks[i].is_objective) continue;
      Delivery delivery;
      delivery.company = prefix + document.report.company;
      delivery.document = document.report.document;
      delivery.page = blocks[i].page;
      delivery.sequence = document.sequence * 1000000 + static_cast<int64_t>(i);
      delivery.record.objective_id =
          document.report.document + "#b" + std::to_string(i);
      delivery.record.objective_text = blocks[i].text;
      for (const auto& annotation : blocks[i].annotations) {
        delivery.record.fields[annotation.kind] = annotation.value;
      }
      if (blocks[i].annotations.size() == 2) {
        // Withdrawal blocks carry only Action + Qualifier.
        delivery.record.fields["_status"] = "abandoned";
      }
      out->push_back(std::move(delivery));
    }
  }
}

/// Applies the store's documented Upsert rules to `delivery` in a plain
/// map: the reference model the final rows are checked against.
void ApplyReference(const Delivery& delivery,
                    std::map<std::string, Expected>* expected) {
  const std::string key =
      goalex::core::ObjectiveUpsertKey(delivery.company, delivery.record);
  auto [it, inserted] = expected->try_emplace(key);
  Expected& state = it->second;
  if (inserted) {
    state = {1, delivery.sequence, &delivery};
    return;
  }
  if (delivery.sequence < state.sequence) return;  // Stale.
  const Delivery& live = *state.content;
  const bool same = delivery.sequence == state.sequence &&
                    delivery.document == live.document &&
                    delivery.page == live.page &&
                    SameRecord(delivery.record, live.record);
  if (same) return;
  state = {state.version + 1, delivery.sequence, &delivery};
}

std::vector<Query> MakeQueries(const Inputs& inputs, const Params& params) {
  std::set<std::string> term_set;
  std::set<std::string> company_set;
  for (const auto& list : inputs.writer) {
    for (const Delivery& delivery : list) {
      company_set.insert(delivery.company);
      for (const std::string& term : goalex::storage::TextIndexTerms(
               delivery.record.FieldOrEmpty("Qualifier"))) {
        if (term.size() > 3) term_set.insert(term);
      }
    }
  }
  std::vector<std::string> terms(term_set.begin(), term_set.end());
  std::vector<std::string> companies(company_set.begin(), company_set.end());
  // The mix walks the term, company and year lists in a fixed stride
  // rather than drawing from them, so every seed queries the same shape of
  // dashboard and only the stored data differs.
  const int first_year = params.Int("query_first_year");
  const int span = params.Int("query_year_span");
  std::vector<Query> queries;
  GOALEX_CHECK_EQ(params.Int("query_mix_size") % kKinds, 0);
  for (int i = 0; i < params.Int("query_mix_size"); ++i) {
    Query query;
    query.kind = static_cast<QueryKind>(i % kKinds);
    const int refresh = i / kKinds;
    const int year = first_year + refresh % 10;
    switch (query.kind) {
      case kText:
        query.term = terms[(refresh * 7) % terms.size()];
        if (refresh % 2 == 0) {
          query.filter.company = companies[(refresh * 13) % companies.size()];
        } else {
          query.filter.with_field = "Deadline";
          query.filter.min_deadline_year = year;
          query.filter.max_deadline_year = year + span;
        }
        break;
      case kDeadlineRange:
        query.min_year = year;
        query.max_year = year + span;
        break;
      case kCoverage:
        query.field = refresh % 2 == 0 ? "Amount" : "Deadline";
        break;
      default:
        break;
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

Inputs MakeInputs(const Params& params, uint64_t seed) {
  Inputs inputs;
  std::vector<Delivery> all;
  for (int s = 0; s < params.Int("streams"); ++s) {
    AppendStream(params, 5000 + seed * 1000 + s, s, &all);
  }
  // Redelivery tail: earlier publications arrive again after everything
  // newer (older sequence: stale), and live ones repeat byte for byte
  // (unchanged).
  goalex::Rng rng(seed + 11);
  const size_t tail = static_cast<size_t>(
      params.Double("redelivery_fraction") * static_cast<double>(all.size()));
  std::vector<Delivery> redelivered;
  for (size_t i = 0; i < tail; ++i) {
    redelivered.push_back(all[rng.NextIndex(all.size())]);
  }
  all.insert(all.end(), redelivered.begin(), redelivered.end());
  // Each writer owns whole companies, so one key's deliveries keep their
  // order and the reference model is exact.
  for (Delivery& delivery : all) {
    inputs.writer[Fnv1a(delivery.company) % 2].push_back(std::move(delivery));
  }
  for (const auto& list : inputs.writer) {
    for (const Delivery& delivery : list) {
      ApplyReference(delivery, &inputs.expected);
    }
    inputs.upserts += static_cast<int64_t>(list.size());
  }
  inputs.queries = MakeQueries(inputs, params);
  return inputs;
}

goalex::core::DbOptions StoreOptions(const Params& params) {
  goalex::core::DbOptions options;
  options.track_upserts = true;
  options.background_seal = false;
  options.seal_threshold = 0;
  options.wal_fsync_interval = params.Int("wal_fsync_interval");
  return options;
}

/// Runs one query of the mix.
void RunQuery(const ObjectiveDatabase& db, const Query& query) {
  Span span(kQueryName[query.kind]);
  switch (query.kind) {
    case kText:
      db.QueryText(query.term, query.filter);
      break;
    case kDeadlineRange:
      db.DeadlineYearBetween(query.min_year, query.max_year);
      break;
    case kCompanyCount:
      db.CountPerCompany();
      break;
    case kCoverage:
      db.FieldCoverageByCompany(query.field);
      break;
    default:
      break;
  }
}

struct PassResult {
  double writer_s = 0.0;
  double reader_s = 0.0;
  double reopen_s = 0.0;
  std::vector<double> refresh_ms;  ///< One query of each kind, in a row.
  std::vector<double> query_ms[kKinds];
  std::vector<double> upsert_s;
  std::vector<double> flush_s;
  int64_t updated = 0, unchanged = 0, stale = 0;
  size_t segments = 0;
};

/// One pass into a fresh store; leaves the re-opened store in `reopened`.
PassResult RunPass(const Inputs& inputs, const Params& params,
                   const std::string& dir,
                   std::unique_ptr<ObjectiveDatabase>* reopened) {
  ResetDir(dir);
  PassResult result;
  const int flush_every = params.Int("flush_every");
  auto db = std::make_unique<ObjectiveDatabase>(params.Int("shards"),
                                                StoreOptions(params));
  GOALEX_CHECK_OK(db->Open(dir));

  std::atomic<int> writers_left{2};
  SampleSink upsert_s;
  std::vector<double> flush_s;
  // Writers meet at a barrier every flush_every upserts of their own and
  // the barrier's completion seals. A Flush() that overlaps an in-place
  // Upsert on another thread loses that update (the seal pops the row it
  // copied before the update landed), so seals run with writers quiescent;
  // the reader keeps querying throughout.
  auto seal = [&]() noexcept {
    double f0 = NowSeconds();
    {
      Span span("storage.flush");
      GOALEX_CHECK_OK(db->Flush());
    }
    flush_s.push_back(NowSeconds() - f0);
  };
  std::barrier<decltype(seal)> flush_point(2, seal);
  std::atomic<int64_t> updated{0}, unchanged{0}, stale{0};
  auto writer = [&](const std::vector<Delivery>& list) {
    int64_t since_flush = 0;
    for (const Delivery& d : list) {
      double t0 = NowSeconds();
      goalex::core::UpsertResult r = [&] {
        Span span("storage.upsert");
        return db->Upsert(d.record, d.company, d.document, d.page, d.sequence);
      }();
      upsert_s.Add(NowSeconds() - t0);
      if (r.updated) updated.fetch_add(1, std::memory_order_relaxed);
      if (r.stale) stale.fetch_add(1, std::memory_order_relaxed);
      if (r.unchanged() && !r.stale) {
        unchanged.fetch_add(1, std::memory_order_relaxed);
      }
      if (++since_flush == flush_every) {
        since_flush = 0;
        flush_point.arrive_and_wait();
      }
    }
    flush_point.arrive_and_drop();
    writers_left.fetch_sub(1);
  };

  const double start = NowSeconds();
  std::thread reader([&] {
    size_t next = 0;
    while (writers_left.load() > 0) {
      // One dashboard refresh: the next query of each kind, back to back.
      double r0 = NowSeconds();
      Span refresh("dashboard.refresh");
      for (int k = 0; k < kKinds; ++k) {
        const Query& query = inputs.queries[next++ % inputs.queries.size()];
        double t0 = NowSeconds();
        RunQuery(*db, query);
        result.query_ms[query.kind].push_back((NowSeconds() - t0) * 1e3);
      }
      result.refresh_ms.push_back((NowSeconds() - r0) * 1e3);
    }
    result.reader_s = NowSeconds() - start;
  });
  std::thread w0(writer, std::cref(inputs.writer[0]));
  std::thread w1(writer, std::cref(inputs.writer[1]));
  w0.join();
  w1.join();
  result.writer_s = NowSeconds() - start;
  reader.join();
  {
    Span span("storage.flush");
    GOALEX_CHECK_OK(db->Flush());
  }
  result.segments = db->SealedSegmentCount();
  db.reset();

  double t0 = NowSeconds();
  {
    Span span("storage.reopen");
    *reopened = std::make_unique<ObjectiveDatabase>(params.Int("shards"),
                                                    StoreOptions(params));
    GOALEX_CHECK_OK((*reopened)->Open(dir));
  }
  result.reopen_s = NowSeconds() - t0;

  result.upsert_s = upsert_s.Merged();
  result.flush_s = std::move(flush_s);
  result.updated = updated.load();
  result.unchanged = unchanged.load();
  result.stale = stale.load();
  return result;
}

/// Final live rows against the reference model.
int64_t CountRowMismatches(const ObjectiveDatabase& db, const Inputs& inputs) {
  const std::vector<DbRow> rows = db.SnapshotRows();
  int64_t mismatches =
      std::abs(static_cast<int64_t>(rows.size()) -
               static_cast<int64_t>(inputs.expected.size()));
  for (const DbRow& row : rows) {
    auto it = inputs.expected.find(
        goalex::core::ObjectiveUpsertKey(row.company, row.record));
    if (it == inputs.expected.end()) {
      ++mismatches;
      continue;
    }
    const Expected& want = it->second;
    const Delivery& content = *want.content;
    DetailRecord stored = row.record;
    stored.fields.erase(goalex::core::kVersionField);
    stored.fields.erase(goalex::core::kSequenceField);
    const bool ok =
        goalex::core::RecordVersion(row.record) == want.version &&
        goalex::core::RecordSequence(row.record) == want.sequence &&
        row.company == content.company && row.document == content.document &&
        row.page == content.page && SameRecord(stored, content.record);
    if (!ok) ++mismatches;
  }
  return mismatches;
}

/// The query mix against a brute-force filter over SnapshotRows().
int64_t CountQueryMismatches(const ObjectiveDatabase& db,
                             const Inputs& inputs) {
  const std::vector<DbRow> rows = db.SnapshotRows();
  std::vector<std::set<std::string>> row_terms;
  for (const DbRow& row : rows) {
    std::set<std::string> terms;
    for (auto& t : goalex::storage::TextIndexTerms(row.record.objective_text)) {
      terms.insert(t);
    }
    for (const auto& [kind, value] : row.record.fields) {
      if (value.empty()) continue;
      for (auto& t : goalex::storage::TextIndexTerms(value)) terms.insert(t);
    }
    row_terms.push_back(std::move(terms));
  }
  auto in_range = [](const DbRow& row, std::optional<int> lo,
                     std::optional<int> hi) {
    std::optional<int> year = goalex::storage::DeadlineYearOfRecord(row.record);
    return year.has_value() && (!lo || *year >= *lo) && (!hi || *year <= *hi);
  };
  auto ids = [](const std::vector<DbRow>& result) {
    std::vector<int64_t> out;
    for (const DbRow& row : result) out.push_back(row.row_id);
    return out;
  };
  int64_t mismatches = 0;
  for (const Query& query : inputs.queries) {
    switch (query.kind) {
      case kText: {
        const goalex::core::TextFilter& f = query.filter;
        std::vector<int64_t> want;
        for (size_t i = 0; i < rows.size(); ++i) {
          const DbRow& row = rows[i];
          if (row_terms[i].count(query.term) == 0) continue;
          if (!f.company.empty() && row.company != f.company) continue;
          if (!f.with_field.empty() &&
              row.record.FieldOrEmpty(f.with_field).empty()) {
            continue;
          }
          if ((f.min_deadline_year || f.max_deadline_year) &&
              !in_range(row, f.min_deadline_year, f.max_deadline_year)) {
            continue;
          }
          want.push_back(row.row_id);
        }
        if (ids(db.QueryText(query.term, f)) != want) ++mismatches;
        break;
      }
      case kDeadlineRange: {
        std::vector<int64_t> want;
        for (const DbRow& row : rows) {
          if (in_range(row, query.min_year, query.max_year)) {
            want.push_back(row.row_id);
          }
        }
        if (ids(db.DeadlineYearBetween(query.min_year, query.max_year)) !=
            want) {
          ++mismatches;
        }
        break;
      }
      case kCompanyCount: {
        std::map<std::string, int64_t> want;
        for (const DbRow& row : rows) ++want[row.company];
        if (db.CountPerCompany() != want) ++mismatches;
        break;
      }
      case kCoverage: {
        std::map<std::string, int64_t> total, with;
        for (const DbRow& row : rows) {
          ++total[row.company];
          if (!row.record.FieldOrEmpty(query.field).empty()) {
            ++with[row.company];
          }
        }
        std::map<std::string, double> got =
            db.FieldCoverageByCompany(query.field);
        bool same = got.size() == total.size();
        for (const auto& [company, n] : total) {
          auto it = got.find(company);
          same = same && it != got.end() &&
                 std::abs(it->second -
                          static_cast<double>(with[company]) / n) < 1e-12;
        }
        if (!same) ++mismatches;
        break;
      }
      default:
        break;
    }
  }
  return mismatches;
}

}  // namespace

void RunDashboard(const Args& args, Report& report) {
  const Params& params = args.params;
  Inputs inputs;
  std::vector<double> setup_s;
  for (int r = 0; r < params.Int("setup_repeats"); ++r) {
    double t0 = NowSeconds();
    inputs = MakeInputs(params, args.seed);
    setup_s.push_back(NowSeconds() - t0);
  }
  report.Note("dashboard: " + std::to_string(inputs.upserts) +
              " upserts per pass over " +
              std::to_string(inputs.expected.size()) + " objectives, " +
              std::to_string(inputs.queries.size()) + " queries in the mix");

  const std::string dir = args.work_dir + "/store";
  std::unique_ptr<ObjectiveDatabase> reopened;
  std::vector<double> upserts_per_s, refreshes_per_s, refresh_ms, reopen_s;
  std::vector<double> traced_writer_s;
  double untraced_writer_s = 0.0;
  PassResult traced_pass;
  RegistryReading before_traced, after_traced;
  const double measure_start = NowSeconds();
  for (int pass = 0;; ++pass) {
    // A traced run makes one untraced pass (the overhead reference), then
    // traced passes; per-layer values come from the first traced pass.
    const bool traced = args.trace && pass > 0;
    const int counted = args.trace ? pass - 1 : pass;
    if (counted >= params.Int("min_passes") &&
        NowSeconds() - measure_start >= args.seconds) {
      break;
    }
    reopened.reset();
    const RegistryReading before = RegistryReading::Take();
    SetTracing(traced);
    PassResult result = RunPass(inputs, params, dir, &reopened);
    SetTracing(false);
    const RegistryReading after = RegistryReading::Take();
    report.AddAttempted(inputs.upserts +
                        kKinds * static_cast<int64_t>(result.refresh_ms.size()));
    if (args.trace && pass == 0) {
      untraced_writer_s = result.writer_s;
      continue;
    }
    upserts_per_s.push_back(inputs.upserts / result.writer_s);
    refreshes_per_s.push_back(result.refresh_ms.size() / result.reader_s);
    refresh_ms.insert(refresh_ms.end(), result.refresh_ms.begin(),
                      result.refresh_ms.end());
    reopen_s.push_back(result.reopen_s);
    if (traced) traced_writer_s.push_back(result.writer_s);
    if (traced && pass == 1) {
      traced_pass = std::move(result);
      before_traced = before;
      after_traced = after;
    }
  }

  const int64_t row_mismatches = CountRowMismatches(*reopened, inputs);
  report.Check(row_mismatches == 0,
               "re-opened live rows match the reference model (" +
                   std::to_string(inputs.expected.size()) + " keys, " +
                   std::to_string(row_mismatches) + " mismatches)");
  const int64_t query_mismatches = CountQueryMismatches(*reopened, inputs);
  report.Check(query_mismatches == 0,
               "query mix matches a brute-force filter over SnapshotRows (" +
                   std::to_string(query_mismatches) + " mismatches)");
  reopened.reset();

  if (!args.trace) {
    EndToEnd e2e;
    e2e.names = {"dashboard.upserts_per_s", "dashboard.refreshes_per_s",
                 "dashboard.refresh_p50_ms", "dashboard.refresh_p99_ms"};
    e2e.setup_s = Median(setup_s);
    e2e.throughput_per_s = Median(upserts_per_s);
    e2e.secondary_per_s = Median(refreshes_per_s);
    e2e.p50_ms = Percentile(refresh_ms, 0.50);
    e2e.p99_ms = Percentile(refresh_ms, 0.99);
    report.Note(std::to_string(upserts_per_s.size()) + " passes, " +
                std::to_string(refresh_ms.size()) + " refreshes, reopen " +
                std::to_string(Median(reopen_s)) + " s");
    EmitEndToEnd(e2e, report);
    return;
  }

  const PassResult& t = traced_pass;
  std::map<std::string, double> layer;
  std::vector<double> upsert_us, flush_ms;
  for (double s : t.upsert_s) upsert_us.push_back(s * 1e6);
  for (double s : t.flush_s) flush_ms.push_back(s * 1e3);
  layer["storage.upsert_p50_us"] = Percentile(upsert_us, 0.50);
  layer["storage.upsert_p99_us"] = Percentile(upsert_us, 0.99);
  layer["storage.flush_p50_ms"] = Percentile(flush_ms, 0.50);
  layer["storage.flush_max_ms"] =
      flush_ms.empty() ? 0.0
                       : *std::max_element(flush_ms.begin(), flush_ms.end());
  layer["storage.seals"] =
      after_traced.CounterDelta(before_traced, "db.segment.seals");
  layer["storage.wal_appends"] =
      after_traced.CounterDelta(before_traced, "db.wal.appends");
  for (int k = 0; k < kKinds; ++k) {
    std::vector<double> us;
    for (double ms : t.query_ms[k]) us.push_back(ms * 1e3);
    layer[std::string(kQueryName[k]) + "_p50_us"] = Percentile(us, 0.50);
    layer[std::string(kQueryName[k]) + "_p99_us"] = Percentile(us, 0.99);
  }
  layer["storage.segments"] = static_cast<double>(t.segments);
  layer["storage.reopen_s"] = t.reopen_s;
  layer["storage.upserts_updated"] = static_cast<double>(t.updated);
  layer["storage.upserts_unchanged"] = static_cast<double>(t.unchanged);
  layer["storage.upserts_stale"] = static_cast<double>(t.stale);
  layer["storage.upserts_inserted"] = static_cast<double>(
      inputs.upserts - t.updated - t.unchanged - t.stale);
  layer["trace.overhead_pct"] =
      100.0 * (Median(traced_writer_s) / untraced_writer_s - 1.0);
  EmitPerLayer(layer, report);
}

}  // namespace perfbench
