// Tests for the record store (the DB2 substitute) and the service-time
// model, including a differential sweep of the columnar store against a
// record-by-record model on both sides of the index-pricing threshold.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "record/query.h"
#include "store/record_store.h"
#include "store/service_model.h"
#include "util/rng.h"
#include "workload/record_generator.h"

namespace roads::store {
namespace {

using record::AttributeValue;
using record::Predicate;
using record::Query;
using record::ResourceRecord;

record::Schema small_schema() { return record::Schema::uniform_numeric(4); }

ResourceRecord rec4(record::RecordId id, double a, double b, double c,
                    double d) {
  return ResourceRecord(id, 1,
                        {AttributeValue(a), AttributeValue(b),
                         AttributeValue(c), AttributeValue(d)});
}

TEST(RecordStore, InsertGetErase) {
  RecordStore store(small_schema());
  store.insert(rec4(1, 0.1, 0.2, 0.3, 0.4));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.contains(1));
  EXPECT_DOUBLE_EQ(store.get(1).value(0).number(), 0.1);
  EXPECT_TRUE(store.erase(1));
  EXPECT_FALSE(store.contains(1));
  EXPECT_FALSE(store.erase(1));
  EXPECT_THROW(store.get(1), std::out_of_range);
}

TEST(RecordStore, RejectsDuplicatesAndNonConforming) {
  RecordStore store(small_schema());
  store.insert(rec4(1, 0.1, 0.2, 0.3, 0.4));
  EXPECT_THROW(store.insert(rec4(1, 0.5, 0.5, 0.5, 0.5)),
               std::invalid_argument);
  ResourceRecord bad(2, 1, {AttributeValue(0.1)});
  EXPECT_THROW(store.insert(bad), std::invalid_argument);
  // A NaN value has no summary bucket: rejected on insert and on
  // update, leaving the store as it was.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto version = store.version();
  const auto bytes = store.stored_bytes();
  EXPECT_THROW(store.insert(rec4(3, 0.5, nan, 0.5, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(store.update(rec4(1, nan, 0.2, 0.3, 0.4)),
               std::invalid_argument);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.contains(3));
  EXPECT_EQ(store.version(), version);
  EXPECT_EQ(store.stored_bytes(), bytes);
  EXPECT_DOUBLE_EQ(store.get(1).value(0).number(), 0.1);
}

TEST(RecordStore, UpdateReplacesValues) {
  RecordStore store(small_schema());
  store.insert(rec4(1, 0.1, 0.2, 0.3, 0.4));
  store.update(rec4(1, 0.9, 0.2, 0.3, 0.4));
  EXPECT_DOUBLE_EQ(store.get(1).value(0).number(), 0.9);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_THROW(store.update(rec4(99, 0, 0, 0, 0)), std::invalid_argument);
}

TEST(RecordStore, QueryFiltersConjunction) {
  RecordStore store(small_schema());
  store.insert(rec4(1, 0.1, 0.1, 0.1, 0.1));
  store.insert(rec4(2, 0.5, 0.5, 0.5, 0.5));
  store.insert(rec4(3, 0.5, 0.9, 0.5, 0.5));
  Query q;
  q.add(Predicate::range(0, 0.4, 0.6));
  q.add(Predicate::range(1, 0.4, 0.6));
  EXPECT_EQ(store.query(q), (std::vector<record::RecordId>{2}));
  EXPECT_EQ(store.count_matching(q), 1u);
}

TEST(RecordStore, EmptyQueryReturnsAllSorted) {
  RecordStore store(small_schema());
  store.insert(rec4(3, 0, 0, 0, 0));
  store.insert(rec4(1, 0, 0, 0, 0));
  store.insert(rec4(2, 0, 0, 0, 0));
  EXPECT_EQ(store.query(Query()), (std::vector<record::RecordId>{1, 2, 3}));
}

TEST(RecordStore, QueryAfterEraseExcludesTombstones) {
  RecordStore store(small_schema());
  store.insert(rec4(1, 0.5, 0.5, 0.5, 0.5));
  store.insert(rec4(2, 0.5, 0.5, 0.5, 0.5));
  store.erase(1);
  Query q;
  q.add(Predicate::range(0, 0.4, 0.6));
  EXPECT_EQ(store.query(q), (std::vector<record::RecordId>{2}));
  EXPECT_EQ(store.snapshot().size(), 1u);
}

TEST(RecordStore, ScanAndIndexPathsAgree) {
  // Build a store past the index threshold and compare results of the
  // indexed path against a brute-force reference on random queries.
  const auto schema = record::Schema::uniform_numeric(6);
  const auto spec = workload::WorkloadSpec::paper_default(6, 700);
  workload::RecordGenerator gen(schema, spec, 5);
  RecordStore store(schema);
  std::vector<ResourceRecord> reference;
  for (std::uint32_t n = 0; n < 4; ++n) {
    for (auto& r : gen.records_for_node(n, n + 1)) {
      reference.push_back(r);
      store.insert(std::move(r));
    }
  }
  ASSERT_GE(store.size(), RecordStore::kIndexThreshold);

  util::Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    Query q;
    for (std::size_t a = 0; a < 3; ++a) {
      const double lo = rng.uniform01() * 0.7;
      q.add(Predicate::range(a, lo, lo + 0.3));
    }
    QueryStats stats;
    const auto got = store.query(q, &stats);
    EXPECT_TRUE(stats.used_index);
    std::vector<record::RecordId> expect;
    for (const auto& r : reference) {
      if (q.matches(r)) expect.push_back(r.id());
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect);
    EXPECT_EQ(stats.matches, expect.size());
    EXPECT_GE(stats.candidates_scanned, expect.size());
  }
}

TEST(RecordStore, IndexInvalidatedByMutation) {
  const auto schema = record::Schema::uniform_numeric(2);
  RecordStore store(schema);
  for (std::uint32_t i = 0; i < RecordStore::kIndexThreshold + 10; ++i) {
    store.insert(ResourceRecord(
        i, 1, {AttributeValue(0.5), AttributeValue(0.5)}));
  }
  Query q;
  q.add(Predicate::range(0, 0.4, 0.6));
  const auto before = store.query(q).size();
  store.erase(0);
  EXPECT_EQ(store.query(q).size(), before - 1);
  store.insert(ResourceRecord(999999, 1,
                              {AttributeValue(0.5), AttributeValue(0.5)}));
  EXPECT_EQ(store.query(q).size(), before);
}

TEST(RecordStore, SummarizeMatchesContents) {
  RecordStore store(small_schema());
  store.insert(rec4(1, 0.25, 0.5, 0.5, 0.5));
  store.insert(rec4(2, 0.75, 0.5, 0.5, 0.5));
  summary::SummaryConfig config;
  config.histogram_buckets = 10;
  const auto s = store.summarize(config);
  EXPECT_EQ(s.record_count(), 2u);
  Query q;
  q.add(Predicate::range(0, 0.2, 0.3));
  EXPECT_TRUE(s.matches(q));
  Query none;
  none.add(Predicate::range(0, 0.45, 0.48));
  EXPECT_FALSE(s.matches(none));
}

TEST(RecordStore, StoredBytesSumsWireSizes) {
  RecordStore store(small_schema());
  const auto r = rec4(1, 0, 0, 0, 0);
  const auto one = r.wire_size();
  store.insert(r);
  store.insert(rec4(2, 0, 0, 0, 0));
  EXPECT_EQ(store.stored_bytes(), 2 * one);
}

TEST(RecordStore, StoredBytesTracksEraseAndUpdate) {
  // stored_bytes is maintained incrementally; every mutation kind must
  // leave it equal to the sum over the survivors.
  RecordStore store(small_schema());
  const auto one = rec4(1, 0, 0, 0, 0).wire_size();
  store.insert(rec4(1, 0.1, 0.2, 0.3, 0.4));
  store.insert(rec4(2, 0.5, 0.5, 0.5, 0.5));
  store.insert(rec4(3, 0.9, 0.9, 0.9, 0.9));
  EXPECT_EQ(store.stored_bytes(), 3 * one);
  store.erase(2);
  EXPECT_EQ(store.stored_bytes(), 2 * one);
  store.update(rec4(3, 0.1, 0.1, 0.1, 0.1));
  EXPECT_EQ(store.stored_bytes(), 2 * one);
  store.erase(1);
  store.erase(3);
  EXPECT_EQ(store.stored_bytes(), 0u);
}

TEST(RecordStore, VersionAdvancesOnEveryMutation) {
  RecordStore store(small_schema());
  const auto v0 = store.version();
  store.insert(rec4(1, 0.1, 0.2, 0.3, 0.4));
  EXPECT_GT(store.version(), v0);
  const auto v1 = store.version();
  store.update(rec4(1, 0.5, 0.2, 0.3, 0.4));
  EXPECT_GT(store.version(), v1);
  const auto v2 = store.version();
  store.erase(1);
  EXPECT_GT(store.version(), v2);
  // Failed mutations leave the version alone.
  const auto v3 = store.version();
  EXPECT_FALSE(store.erase(1));
  EXPECT_EQ(store.version(), v3);
}

// The row store's index walk took an inverted range's negative index
// distance as its candidate count on stores at or above the threshold,
// and walked past the end of the index.
TEST(RecordStore, InvertedRangeMatchesNothingOnBothSidesOfTheThreshold) {
  for (const std::size_t n : {RecordStore::kIndexThreshold - 10,
                              RecordStore::kIndexThreshold + 10}) {
    SCOPED_TRACE(n);
    RecordStore store(record::Schema::uniform_numeric(2));
    for (std::size_t i = 0; i < n; ++i) {
      store.insert(ResourceRecord(
          i, 1,
          {AttributeValue(static_cast<double>(i) / static_cast<double>(n)),
           AttributeValue(0.5)}));
    }
    const Query alone({Predicate::range(0, 0.6, 0.4)});
    const Query paired(
        {Predicate::range(1, 0.0, 1.0), Predicate::range(0, 0.6, 0.4)});
    for (const auto& q : {alone, paired}) {
      QueryStats stats;
      EXPECT_TRUE(store.query(q, &stats).empty());
      EXPECT_EQ(stats.matches, 0u);
      EXPECT_EQ(store.count_matching(q), 0u);
      const bool large = n >= RecordStore::kIndexThreshold;
      EXPECT_EQ(stats.used_index, large);
      EXPECT_EQ(stats.candidates_scanned, large ? 0u : n);
    }
  }
}

// --- Differential sweep: the store against a record-by-record model ---

/// Numeric and categorical attributes, searchable or not: queries may
/// filter on any of them, summaries cover only the searchable ones.
record::Schema mixed_schema() {
  using record::AttributeType;
  return record::Schema({
      {"load", AttributeType::kNumeric, true, 0.0, 1.0},
      {"kind", AttributeType::kCategorical, true},
      {"serial", AttributeType::kNumeric, false, 0.0, 1.0},
      {"rate", AttributeType::kNumeric, true, 0.0, 1.0},
      {"site", AttributeType::kCategorical, false},
  });
}

const std::vector<std::string> kCategories = {"a", "cam", "disk", "gpu-node"};

ResourceRecord random_record(util::Rng& rng, record::RecordId id) {
  // Coarse values, so lo == hi and the range bounds hit stored values.
  const auto value = [&rng] {
    return AttributeValue(
        static_cast<double>(rng.uniform_int(0, 20)) / 20.0);
  };
  const auto category = [&rng] {
    return AttributeValue(kCategories[rng.uniform_int(0, 3)]);
  };
  return ResourceRecord(id, static_cast<record::OwnerId>(rng.uniform_int(0, 3)),
                        {value(), category(), value(), value(), category()});
}

TEST(RecordStore, InsertAllMatchesInsertingTheSnapshot) {
  util::Rng rng(3);
  RecordStore source(mixed_schema());
  for (const record::RecordId id : {40, 7, 23, 91, 15}) {
    source.insert(random_record(rng, id));
  }
  summary::SummaryConfig config;
  config.categorical_mode = summary::CategoricalMode::kBloom;
  RecordStore bulk(mixed_schema());
  RecordStore one_by_one(mixed_schema());
  for (auto* store : {&bulk, &one_by_one}) {
    util::Rng same(9);
    for (const record::RecordId id : {3, 60}) {
      store->insert(random_record(same, id));
    }
  }

  bulk.insert_all(source);
  for (auto& r : source.snapshot()) one_by_one.insert(std::move(r));
  ASSERT_EQ(bulk.size(), 7u);
  EXPECT_EQ(bulk.version(), one_by_one.version());
  EXPECT_EQ(bulk.stored_bytes(), one_by_one.stored_bytes());
  const auto got = bulk.snapshot();
  const auto want = one_by_one.snapshot();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id(), want[i].id());
    EXPECT_EQ(got[i].owner(), want[i].owner());
    EXPECT_EQ(got[i].values(), want[i].values());
  }
  EXPECT_EQ(bulk.summarize(config).digest(),
            one_by_one.summarize(config).digest());

  // A duplicate id or another schema shape rejects the whole batch.
  const auto version = bulk.version();
  EXPECT_THROW(bulk.insert_all(source), std::invalid_argument);
  EXPECT_EQ(bulk.size(), 7u);
  EXPECT_EQ(bulk.version(), version);
  RecordStore numeric(record::Schema::uniform_numeric(5));
  EXPECT_THROW(numeric.insert_all(source), std::invalid_argument);
  EXPECT_TRUE(numeric.empty());
}

std::vector<Query> probe_queries(util::Rng& rng,
                                 const std::map<record::RecordId,
                                                ResourceRecord>& model) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto coarse = [&rng] {
    return static_cast<double>(rng.uniform_int(0, 20)) / 20.0;
  };
  std::vector<Query> out;
  for (int i = 0; i < 4; ++i) {  // random ranges on 1-3 numeric columns
    Query q;
    for (const std::size_t a : {std::size_t{0}, std::size_t{3}, std::size_t{2}}) {
      if (!q.empty() && rng.uniform_int(0, 2) == 0) continue;
      const double lo = coarse();
      q.add(Predicate::range(a, lo, std::min(1.0, lo + coarse() / 2.0)));
    }
    out.push_back(q);
  }
  out.push_back(Query({Predicate::at_least(0, coarse()),
                       Predicate::at_most(3, coarse())}));
  out.push_back(Query({Predicate::range(3, -kInf, kInf)}));
  const double stored =
      model.empty() ? 0.5 : model.begin()->second.value(0).number();
  out.push_back(Query({Predicate::range(0, stored, stored)}));
  out.push_back(Query({Predicate::range(3, 0.0, 1.0),
                       Predicate::range(0, 0.6, 0.4)}));
  out.push_back(Query({Predicate::range(
      0, std::numeric_limits<double>::quiet_NaN(), 1.0)}));
  out.push_back(Query({Predicate::equals(1, kCategories[rng.uniform_int(0, 3)]),
                       Predicate::range(0, 0.0, coarse())}));
  out.push_back(Query({Predicate::equals(1, "never-stored")}));
  out.push_back(Query({Predicate::equals(4, "never-stored")}));
  out.push_back(Query({Predicate::equals(0, "a")}));           // wrong kind
  out.push_back(Query({Predicate::range(1, 0.0, 1.0)}));       // wrong kind
  out.push_back(Query({Predicate::range(0, 0.0, 1.0),
                       Predicate::range(9, 0.0, 1.0)}));       // no such attr
  out.push_back(Query());
  return out;
}

/// QueryStats restated from the rule: at or above the threshold, the
/// fewest values in [lo, hi] over ranges on searchable numeric columns;
/// every record otherwise.
QueryStats expected_stats(const record::Schema& schema, const Query& q,
                          const std::vector<ResourceRecord>& records,
                          std::size_t matches) {
  QueryStats out;
  out.matches = matches;
  out.candidates_scanned = records.size();
  if (records.size() < RecordStore::kIndexThreshold) return out;
  for (const auto& p : q.predicates()) {
    if (p.kind != Predicate::Kind::kRange || p.attribute >= schema.size() ||
        !schema.at(p.attribute).searchable ||
        schema.at(p.attribute).type != record::AttributeType::kNumeric) {
      continue;
    }
    std::size_t count = 0;
    for (const auto& r : records) {
      const double v = r.value(p.attribute).number();
      if (p.lo <= v && v <= p.hi) ++count;
    }
    if (!out.used_index || count < out.candidates_scanned) {
      out.candidates_scanned = count;
    }
    out.used_index = true;
  }
  return out;
}

void check_against_model(
    const RecordStore& store,
    const std::map<record::RecordId, ResourceRecord>& model,
    const summary::SummaryConfig& config, util::Rng& rng) {
  std::vector<ResourceRecord> records;
  std::uint64_t bytes = 0;
  for (const auto& [id, r] : model) {
    records.push_back(r);
    bytes += r.wire_size();
  }
  ASSERT_EQ(store.size(), records.size());
  const auto snapshot = store.snapshot();
  ASSERT_EQ(snapshot.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(snapshot[i].id(), records[i].id());
    ASSERT_EQ(snapshot[i].owner(), records[i].owner());
    ASSERT_EQ(snapshot[i].values(), records[i].values());
  }
  EXPECT_EQ(store.stored_bytes(), bytes);

  for (const auto& q : probe_queries(rng, model)) {
    SCOPED_TRACE(q.to_string(store.schema()));
    std::vector<record::RecordId> expect;
    for (const auto& r : records) {
      if (q.matches(r)) expect.push_back(r.id());
    }
    QueryStats stats;
    EXPECT_EQ(store.query(q, &stats), expect);
    const auto want = expected_stats(store.schema(), q, records, expect.size());
    EXPECT_EQ(stats.candidates_scanned, want.candidates_scanned);
    EXPECT_EQ(stats.matches, want.matches);
    EXPECT_EQ(stats.used_index, want.used_index);
    EXPECT_EQ(store.count_matching(q), expect.size());
  }

  const auto reference =
      summary::ResourceSummary::of_records(store.schema(), config, records);
  EXPECT_EQ(store.summarize(config).digest(), reference.digest());
}

TEST(RecordStore, DifferentialSweepAgainstRecordModel) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    summary::SummaryConfig config;
    config.histogram_buckets = 16;
    config.categorical_mode = seed % 2 == 0
                                  ? summary::CategoricalMode::kBloom
                                  : summary::CategoricalMode::kEnumerate;
    RecordStore store(mixed_schema());
    std::map<record::RecordId, ResourceRecord> model;
    record::RecordId next_id = 1;

    const auto insert = [&] {
      // Ids arrive out of order, so slot order and id order differ.
      const auto id = next_id++ * 7919 % 100'003;
      auto r = random_record(rng, id);
      model.emplace(id, r);
      store.insert(std::move(r));
    };
    const auto erase = [&](bool last_inserted) {
      if (model.empty()) return;
      auto it = model.begin();
      if (last_inserted) {
        it = model.find((next_id - 1) * 7919 % 100'003);
        if (it == model.end()) return;
      } else {
        std::advance(it, rng.uniform_int(0, model.size() - 1));
      }
      EXPECT_TRUE(store.erase(it->first));
      model.erase(it);
    };
    const auto insert_batch = [&] {
      RecordStore batch(mixed_schema());
      for (auto n = rng.uniform_int(0, 4); n > 0; --n) {
        const auto id = next_id++ * 7919 % 100'003;
        auto r = random_record(rng, id);
        model.emplace(id, r);
        batch.insert(std::move(r));
      }
      store.insert_all(batch);
    };
    const auto update = [&] {
      if (model.empty()) return;
      auto it = model.begin();
      std::advance(it, rng.uniform_int(0, model.size() - 1));
      it->second = random_record(rng, it->first);
      store.update(it->second);
    };
    const auto random_ops = [&](int ops, int insert_weight) {
      for (int i = 0; i < ops; ++i) {
        const auto pick = rng.uniform_int(0, insert_weight + 4);
        if (pick < insert_weight) {
          insert();
        } else if (pick == insert_weight + 4) {
          insert_batch();
        } else if (pick == insert_weight) {
          erase(/*last_inserted=*/true);  // the record in the last slot
        } else if (pick == insert_weight + 1) {
          erase(/*last_inserted=*/false);
        } else {
          update();
        }
      }
    };
    const auto check = [&] {
      check_against_model(store, model, config, rng);
    };

    // Small stores, down to the only record and an empty store.
    for (int step = 0; step < 12; ++step) {
      random_ops(static_cast<int>(rng.uniform_int(1, 6)), 2);
      check();
    }
    insert();
    erase(/*last_inserted=*/true);  // the last slot, with no hole to fill
    check();
    while (model.size() > 1) erase(false);
    check();
    erase(false);
    check();

    // Across the index threshold and back.
    while (model.size() + 4 < RecordStore::kIndexThreshold) insert();
    check();
    for (int step = 0; step < 8; ++step) {
      random_ops(4, 4);
      check();
    }
    for (int step = 0; step < 8; ++step) {
      random_ops(4, 0);
      check();
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// --- Service model ---

TEST(ServiceModel, MonotoneInWork) {
  ServiceModelParams params;
  QueryStats small{10, 1, true};
  QueryStats large{10000, 500, true};
  EXPECT_LT(service_time_us(params, small, 100),
            service_time_us(params, large, 100));
  EXPECT_LT(service_time_us(params, small, 100),
            service_time_us(params, small, 1000000));
}

TEST(ServiceModel, FixedOverheadFloor) {
  ServiceModelParams params;
  params.query_overhead_us = 1500.0;
  QueryStats none{0, 0, false};
  EXPECT_EQ(service_time_us(params, none, 0), 1500);
}

TEST(ServiceModel, ZeroBandwidthMeansNoTransferTerm) {
  ServiceModelParams params;
  params.bandwidth_bytes_per_us = 0.0;
  QueryStats none{0, 0, false};
  EXPECT_EQ(service_time_us(params, none, 1 << 20),
            static_cast<std::int64_t>(params.query_overhead_us));
}

}  // namespace
}  // namespace roads::store
