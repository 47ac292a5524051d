// PerfDatabase persistence: a long-running service profiles once and
// reloads the database across jobs.
#include <gtest/gtest.h>

#include "models/op_factory.hpp"
#include "perf/perf_db.hpp"

namespace opsched {
namespace {

PerfDatabase sample_db() {
  PerfDatabase db;
  ProfileCurve c1;
  c1.add_sample(AffinityMode::kSpread, 1, 10.0);
  c1.add_sample(AffinityMode::kSpread, 5, 3.5);
  c1.add_sample(AffinityMode::kShared, 4, 4.25);
  db.put(OpKey::of(fig1_conv2d()), c1);
  ProfileCurve c2;
  c2.add_sample(AffinityMode::kSpread, 8, 1.0);
  db.put(OpKey::of(fig1_backprop_filter()), c2);
  return db;
}

TEST(PerfDbJson, RoundTripPreservesEverything) {
  const PerfDatabase db = sample_db();
  const std::string doc = db.to_json();
  EXPECT_NE(doc.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"generator\": \"opsched_perfdb\""), std::string::npos);

  PerfDatabase loaded;
  loaded.load_json(doc);
  EXPECT_EQ(loaded.size(), db.size());
  EXPECT_EQ(loaded.total_samples(), db.total_samples());

  const OpKey key = OpKey::of(fig1_conv2d());
  ASSERT_TRUE(loaded.contains(key));
  const ProfileCurve& curve = loaded.at(key);
  EXPECT_DOUBLE_EQ(curve.predict(1, AffinityMode::kSpread), 10.0);
  EXPECT_DOUBLE_EQ(curve.predict(5, AffinityMode::kSpread), 3.5);
  EXPECT_DOUBLE_EQ(curve.predict(4, AffinityMode::kShared), 4.25);
  EXPECT_EQ(curve.best().threads, 5);
}

TEST(PerfDbJson, ShapeHashSurvivesAs64Bit) {
  // A hash above 2^53 would be silently rounded if serialised as a JSON
  // number; the string form must round-trip it exactly.
  const OpKey key{OpKind::kMatMul, 0xFEDCBA9876543210ULL};
  PerfDatabase db;
  ProfileCurve c;
  c.add_sample(AffinityMode::kSpread, 2, 1.5);
  db.put(key, c);

  PerfDatabase loaded;
  loaded.load_json(db.to_json());
  EXPECT_TRUE(loaded.contains(key));
}

TEST(PerfDbJson, EmptyDatabaseRoundTrips) {
  PerfDatabase loaded = sample_db();
  loaded.load_json(PerfDatabase().to_json());
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(PerfDbJson, RejectsMalformedAndWrongVersionLeavingDbUntouched) {
  PerfDatabase db = sample_db();
  const std::string good = db.to_json();
  for (const std::string& bad : {
           std::string("{not json"),
           std::string("{\"schema_version\": 99, \"curves\": []}"),
           std::string("{\"curves\": []}"),  // missing version
           std::string("{\"schema_version\": 1, \"curves\": [{\"kind\": 999, "
                       "\"shape_hash\": \"1\", \"samples\": []}]}"),
           std::string("{\"schema_version\": 1, \"curves\": [{\"kind\": 0, "
                       "\"shape_hash\": \"xyz\", \"samples\": []}]}"),
           std::string("{\"schema_version\": 1, \"curves\": [{\"kind\": 0, "
                       "\"shape_hash\": \"-1\", \"samples\": []}]}"),
           std::string("{\"schema_version\": 1, \"curves\": [{\"kind\": 0, "
                       "\"shape_hash\": \"123abc\", \"samples\": []}]}"),
           std::string("{\"schema_version\": 1, \"curves\": [{\"kind\": 0, "
                       "\"shape_hash\": \"99999999999999999999999\", "
                       "\"samples\": []}]}"),
           std::string("{\"schema_version\": 1, \"curves\": [{\"kind\": 0, "
                       "\"shape_hash\": \"1\", \"samples\": [{\"mode\": 7, "
                       "\"threads\": 1, \"time_ms\": 1.0}]}]}"),
           std::string("{\"schema_version\": 1, \"curves\": [{\"kind\": 0, "
                       "\"shape_hash\": \"1\", \"samples\": [{\"mode\": 0, "
                       "\"threads\": 0, \"time_ms\": 1.0}]}]}"),
       }) {
    EXPECT_THROW(db.load_json(bad), std::runtime_error) << bad;
    // A failed load leaves the previous contents in place.
    EXPECT_EQ(db.size(), 2u) << bad;
  }
  EXPECT_NO_THROW(db.load_json(good));
  EXPECT_EQ(db.size(), 2u);
}

TEST(PerfDbJson, LoadReplacesExistingContents) {
  PerfDatabase db = sample_db();
  ProfileCurve extra;
  extra.add_sample(AffinityMode::kSpread, 2, 1.0);
  db.put(OpKey{OpKind::kMatMul, 42}, extra);
  EXPECT_EQ(db.size(), 3u);
  db.load_json(sample_db().to_json());
  EXPECT_EQ(db.size(), 2u);
  EXPECT_FALSE(db.contains(OpKey{OpKind::kMatMul, 42}));
}

TEST(PerfDbJson, RoundTripIsExact) {
  // Times at full double precision survive the file: a six-digit form
  // would read 0.1234568 back as a different number.
  const OpKey key{OpKind::kMatMul, 7};
  PerfDatabase db;
  ProfileCurve c;
  const double time_ms = 0.123456789012345678;
  c.add_sample(AffinityMode::kSpread, 3, time_ms);
  db.put(key, c);
  PerfDatabase loaded;
  loaded.load_json(db.to_json());
  ASSERT_EQ(loaded.at(key).samples(AffinityMode::kSpread).size(), 1u);
  EXPECT_EQ(loaded.at(key).samples(AffinityMode::kSpread)[0].time_ms,
            time_ms);
}

TEST(PerfDbJson, FileHelpers) {
  const std::string path = std::string(::testing::TempDir()) + "/profiles.json";
  sample_db().save_file(path);
  PerfDatabase loaded;
  loaded.load_file(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.to_json(), sample_db().to_json());

  EXPECT_THROW(sample_db().save_file("/no-such-dir-xyz/p.json"),
               std::runtime_error);
  PerfDatabase e;
  EXPECT_THROW(e.load_file("/no-such-file-xyz.json"), std::runtime_error);
}

}  // namespace
}  // namespace opsched
