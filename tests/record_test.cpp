// Tests for the record module: attribute values, schemas, resource
// records and multi-dimensional queries.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "record/query.h"
#include "record/record.h"
#include "record/schema.h"
#include "record/value.h"

namespace roads::record {
namespace {

Schema camera_schema() {
  return Schema({
      {"type", AttributeType::kCategorical, true, 0, 1},
      {"rate", AttributeType::kNumeric, true, 0.0, 1000.0},
      {"resolution", AttributeType::kNumeric, true, 0.0, 4096.0},
      {"internal_id", AttributeType::kNumeric, false, 0.0, 1e9},
  });
}

ResourceRecord camera(RecordId id, const std::string& type, double rate,
                      double resolution, double internal = 1.0) {
  return ResourceRecord(id, 7,
                        {AttributeValue(type), AttributeValue(rate),
                         AttributeValue(resolution), AttributeValue(internal)});
}

// --- AttributeValue ---

TEST(AttributeValue, TypesAndAccessors) {
  AttributeValue num(3.5);
  EXPECT_TRUE(num.is_numeric());
  EXPECT_EQ(num.type(), AttributeType::kNumeric);
  EXPECT_DOUBLE_EQ(num.number(), 3.5);
  EXPECT_THROW(num.category(), std::bad_variant_access);

  AttributeValue cat(std::string("MPEG2"));
  EXPECT_FALSE(cat.is_numeric());
  EXPECT_EQ(cat.category(), "MPEG2");
  EXPECT_THROW(cat.number(), std::bad_variant_access);
}

TEST(AttributeValue, WireSize) {
  EXPECT_EQ(AttributeValue(1.0).wire_size(), 8u);
  EXPECT_EQ(AttributeValue(std::string("abc")).wire_size(), 4u);
  EXPECT_EQ(AttributeValue(std::string("")).wire_size(), 1u);
}

TEST(AttributeValue, Equality) {
  EXPECT_EQ(AttributeValue(1.0), AttributeValue(1.0));
  EXPECT_NE(AttributeValue(1.0), AttributeValue(2.0));
  EXPECT_NE(AttributeValue(1.0), AttributeValue(std::string("1")));
}

TEST(AttributeValue, ToString) {
  EXPECT_EQ(AttributeValue(std::string("x")).to_string(), "x");
  EXPECT_FALSE(AttributeValue(2.5).to_string().empty());
}

// A value is a double and one owning pointer; a record stays a 40-byte
// header around its value vector.
static_assert(sizeof(AttributeValue) == 16);
static_assert(sizeof(ResourceRecord) == 40);

TEST(AttributeValue, DefaultIsNumericZero) {
  const AttributeValue v;
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.type(), AttributeType::kNumeric);
  EXPECT_DOUBLE_EQ(v.number(), 0.0);
  EXPECT_EQ(v, AttributeValue(0.0));
  EXPECT_THROW(v.category(), std::bad_variant_access);
  EXPECT_EQ(v.wire_size(), 8u);
}

TEST(AttributeValue, CopiedCategoryOutlivesItsSource) {
  // Longer than any small-string buffer, so the string owns heap bytes.
  const std::string name = "camera-feed-with-a-name-past-the-sso-limit";
  auto source = std::make_unique<AttributeValue>(name);
  const AttributeValue copied(*source);
  AttributeValue assigned(1.5);
  assigned = *source;
  EXPECT_NE(copied.category().data(), source->category().data())
      << "a copy must own its own string";
  EXPECT_NE(assigned.category().data(), source->category().data());
  source.reset();
  EXPECT_EQ(copied.category(), name);
  EXPECT_EQ(assigned.category(), name);
  EXPECT_EQ(assigned.type(), AttributeType::kCategorical);
  EXPECT_EQ(assigned.wire_size(), name.size() + 1);

  // Copying over a categorical value with a numeric one drops the string.
  assigned = AttributeValue(2.5);
  EXPECT_TRUE(assigned.is_numeric());
  EXPECT_DOUBLE_EQ(assigned.number(), 2.5);
  // Self-assignment keeps the value.
  AttributeValue self(std::string("self"));
  const AttributeValue& alias = self;
  self = alias;
  EXPECT_EQ(self.category(), "self");
}

TEST(AttributeValue, MovesLeaveTheDocumentedSourceState) {
  AttributeValue cat(std::string("gpu-node"));
  const AttributeValue moved(std::move(cat));
  EXPECT_EQ(moved.category(), "gpu-node");
  // A moved-from categorical value is numeric 0.0.
  EXPECT_TRUE(cat.is_numeric());  // NOLINT(bugprone-use-after-move)
  EXPECT_DOUBLE_EQ(cat.number(), 0.0);
  EXPECT_EQ(cat, AttributeValue(0.0));
  EXPECT_THROW(cat.category(), std::bad_variant_access);

  // A moved-from numeric value keeps its number.
  AttributeValue num(4.25);
  AttributeValue target(std::string("overwritten"));
  target = std::move(num);
  EXPECT_TRUE(target.is_numeric());
  EXPECT_DOUBLE_EQ(target.number(), 4.25);
  EXPECT_DOUBLE_EQ(num.number(), 4.25);  // NOLINT(bugprone-use-after-move)

  // Move-assigning a categorical value over a numeric one.
  AttributeValue into(9.0);
  AttributeValue from(std::string("disk"));
  into = std::move(from);
  EXPECT_EQ(into.category(), "disk");
  EXPECT_TRUE(from.is_numeric());  // NOLINT(bugprone-use-after-move)
}

TEST(AttributeValue, EqualityNeverCrossesKinds) {
  // The numeric payload of a categorical value must not leak into
  // equality: "" and 0.0 are different kinds.
  EXPECT_NE(AttributeValue(0.0), AttributeValue(std::string("")));
  EXPECT_NE(AttributeValue(std::string("")), AttributeValue(0.0));
  EXPECT_NE(AttributeValue(), AttributeValue(std::string()));
  EXPECT_EQ(AttributeValue(std::string("cam")),
            AttributeValue(std::string("cam")));
  EXPECT_NE(AttributeValue(std::string("cam")),
            AttributeValue(std::string("disk")));
  // Doubles compare as doubles: -0.0 == 0.0, NaN equals nothing.
  EXPECT_EQ(AttributeValue(-0.0), AttributeValue(0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(AttributeValue(nan), AttributeValue(nan));
}

TEST(AttributeValue, RecordWireSizeUnchanged) {
  // 16-byte header, then a 2-byte tag and the payload per value.
  const auto r = camera(1, "MPEG2", 30.0, 1080.0);
  EXPECT_EQ(r.wire_size(), 16u + (2 + 6) + 3 * (2 + 8));
  EXPECT_EQ(ResourceRecord(2, 0, std::vector<AttributeValue>(16)).wire_size(),
            176u);
}

// --- Schema ---

TEST(Schema, LookupByName) {
  const auto schema = camera_schema();
  EXPECT_EQ(schema.size(), 4u);
  EXPECT_EQ(schema.index_of("rate"), std::size_t{1});
  EXPECT_FALSE(schema.index_of("missing").has_value());
}

TEST(Schema, SearchableIndices) {
  const auto schema = camera_schema();
  EXPECT_EQ(schema.searchable_indices(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(schema.searchable_count(), 3u);
}

TEST(Schema, UniformNumericBuilder) {
  const auto schema = Schema::uniform_numeric(16);
  EXPECT_EQ(schema.size(), 16u);
  EXPECT_EQ(schema.searchable_count(), 16u);
  EXPECT_EQ(schema.at(3).name, "attr3");
  EXPECT_EQ(schema.at(3).type, AttributeType::kNumeric);
  EXPECT_DOUBLE_EQ(schema.at(3).domain_max, 1.0);
}

TEST(Schema, RejectsBadDefinitions) {
  EXPECT_THROW(
      Schema({{"", AttributeType::kNumeric, true, 0.0, 1.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      Schema({{"x", AttributeType::kNumeric, true, 1.0, 1.0}}),
      std::invalid_argument);
}

TEST(Schema, AtOutOfRangeThrows) {
  EXPECT_THROW(camera_schema().at(99), std::out_of_range);
}

// --- ResourceRecord ---

TEST(ResourceRecord, ConformsToSchema) {
  const auto schema = camera_schema();
  EXPECT_TRUE(camera(1, "camera", 100, 640).conforms_to(schema));
  // Wrong type for attribute 0.
  ResourceRecord bad(2, 7,
                     {AttributeValue(1.0), AttributeValue(2.0),
                      AttributeValue(3.0), AttributeValue(4.0)});
  EXPECT_FALSE(bad.conforms_to(schema));
  // Wrong arity.
  ResourceRecord shorter(3, 7, {AttributeValue(std::string("camera"))});
  EXPECT_FALSE(shorter.conforms_to(schema));
  // A NaN numeric value; infinities conform (summaries clamp them).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(camera(4, "camera", std::numeric_limits<double>::quiet_NaN(),
                      640)
                   .conforms_to(schema));
  EXPECT_TRUE(camera(5, "camera", inf, -inf).conforms_to(schema));
}

TEST(ResourceRecord, ValueAccessAndMutation) {
  auto r = camera(1, "camera", 100, 640);
  EXPECT_DOUBLE_EQ(r.value(1).number(), 100.0);
  r.set_value(1, AttributeValue(250.0));
  EXPECT_DOUBLE_EQ(r.value(1).number(), 250.0);
  EXPECT_THROW(r.value(17), std::out_of_range);
  EXPECT_THROW(r.set_value(17, AttributeValue(1.0)), std::out_of_range);
}

TEST(ResourceRecord, WireSize) {
  // header 16 + ("camera": 2+7) + 3 numerics (2+8 each).
  EXPECT_EQ(camera(1, "camera", 1, 2).wire_size(), 16u + 9u + 3u * 10u);
}

TEST(ResourceRecord, ToStringNamesAttributes) {
  const auto s = camera(1, "camera", 100, 640).to_string(camera_schema());
  EXPECT_NE(s.find("type=camera"), std::string::npos);
  EXPECT_NE(s.find("rate="), std::string::npos);
}

// --- Predicate ---

TEST(Predicate, RangeMatching) {
  const auto p = Predicate::range(1, 100.0, 200.0);
  EXPECT_TRUE(p.matches(AttributeValue(100.0)));   // inclusive lo
  EXPECT_TRUE(p.matches(AttributeValue(200.0)));   // inclusive hi
  EXPECT_TRUE(p.matches(AttributeValue(150.0)));
  EXPECT_FALSE(p.matches(AttributeValue(99.9)));
  EXPECT_FALSE(p.matches(AttributeValue(200.1)));
  EXPECT_FALSE(p.matches(AttributeValue(std::string("150"))));
}

TEST(Predicate, OpenEndedRanges) {
  EXPECT_TRUE(Predicate::at_least(0, 150.0).matches(AttributeValue(1e12)));
  EXPECT_FALSE(Predicate::at_least(0, 150.0).matches(AttributeValue(149.0)));
  EXPECT_TRUE(Predicate::at_most(0, 150.0).matches(AttributeValue(-1e12)));
  EXPECT_FALSE(Predicate::at_most(0, 150.0).matches(AttributeValue(151.0)));
}

TEST(Predicate, EqualsMatching) {
  const auto p = Predicate::equals(0, "MPEG2");
  EXPECT_TRUE(p.matches(AttributeValue(std::string("MPEG2"))));
  EXPECT_FALSE(p.matches(AttributeValue(std::string("MPEG4"))));
  EXPECT_FALSE(p.matches(AttributeValue(1.0)));
}

TEST(Predicate, WireSize) {
  EXPECT_EQ(Predicate::range(0, 0.0, 1.0).wire_size(), 3u + 16u);
  EXPECT_EQ(Predicate::equals(0, "abc").wire_size(), 3u + 4u);
}

// --- Query ---

TEST(Query, ConjunctionSemantics) {
  // The paper's example: type=camera AND rate>150 AND encoding=MPEG2
  // (modeled here with our schema: type=camera AND rate>=150).
  Query q;
  q.add(Predicate::equals(0, "camera"));
  q.add(Predicate::at_least(1, 150.0));
  EXPECT_TRUE(q.matches(camera(1, "camera", 200, 640)));
  EXPECT_FALSE(q.matches(camera(2, "camera", 100, 640)));  // rate too low
  EXPECT_FALSE(q.matches(camera(3, "sensor", 200, 640)));  // wrong type
}

TEST(Query, EmptyQueryMatchesEverything) {
  Query q;
  EXPECT_TRUE(q.matches(camera(1, "camera", 1, 1)));
  EXPECT_TRUE(q.empty());
}

TEST(Query, PredicateOutOfRecordRangeFailsClosed) {
  Query q;
  q.add(Predicate::range(10, 0.0, 1.0));
  EXPECT_FALSE(q.matches(camera(1, "camera", 1, 1)));
}

TEST(Query, ValidForSchema) {
  const auto schema = camera_schema();
  Query good;
  good.add(Predicate::equals(0, "camera"));
  good.add(Predicate::range(1, 0.0, 10.0));
  EXPECT_TRUE(good.valid_for(schema));

  Query range_on_categorical;
  range_on_categorical.add(Predicate::range(0, 0.0, 1.0));
  EXPECT_FALSE(range_on_categorical.valid_for(schema));

  Query equals_on_numeric;
  equals_on_numeric.add(Predicate::equals(1, "x"));
  EXPECT_FALSE(equals_on_numeric.valid_for(schema));

  Query unsearchable;
  unsearchable.add(Predicate::range(3, 0.0, 1.0));
  EXPECT_FALSE(unsearchable.valid_for(schema));

  Query unknown;
  unknown.add(Predicate::range(42, 0.0, 1.0));
  EXPECT_FALSE(unknown.valid_for(schema));
}

TEST(Query, WireSizeSumsPredicates) {
  Query q;
  q.add(Predicate::range(0, 0.0, 1.0));
  q.add(Predicate::equals(1, "ab"));
  EXPECT_EQ(q.wire_size(), 16u + 19u + 6u);
}

TEST(Query, ToStringReadable) {
  const auto schema = camera_schema();
  Query q;
  q.add(Predicate::equals(0, "camera"));
  q.add(Predicate::range(1, 100.0, 200.0));
  const auto s = q.to_string(schema);
  EXPECT_NE(s.find("type=camera"), std::string::npos);
  EXPECT_NE(s.find("AND"), std::string::npos);
  EXPECT_EQ(Query().to_string(schema), "(empty)");
}

}  // namespace
}  // namespace roads::record
