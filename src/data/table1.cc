#include "data/table1.h"

namespace pcube {

namespace {

struct Row {
  uint32_t a;
  uint32_t b;
  float x;
  float y;
  std::vector<uint16_t> path;
};

// Table I verbatim (a1..a4 -> 0..3, b1..b3 -> 0..2).
const std::vector<Row>& Rows() {
  static const std::vector<Row> rows = {
      {0, 0, 0.00f, 0.40f, {1, 1, 1}},  // t1
      {1, 1, 0.20f, 0.60f, {1, 1, 2}},  // t2
      {0, 0, 0.30f, 0.70f, {1, 2, 1}},  // t3
      {2, 2, 0.50f, 0.40f, {1, 2, 2}},  // t4
      {3, 0, 0.60f, 0.00f, {2, 1, 1}},  // t5
      {1, 2, 0.72f, 0.30f, {2, 1, 2}},  // t6
      {3, 1, 0.72f, 0.36f, {2, 2, 1}},  // t7
      {2, 2, 0.85f, 0.62f, {2, 2, 2}},  // t8
  };
  return rows;
}

}  // namespace

Dataset MakeTable1Dataset() {
  Schema schema;
  schema.num_bool = 2;
  schema.num_pref = 2;
  schema.bool_cardinality = {4, 3};
  Dataset data(schema, Rows().size());
  for (TupleId t = 0; t < Rows().size(); ++t) {
    const Row& r = Rows()[t];
    data.SetBoolValue(t, kTable1DimA, r.a);
    data.SetBoolValue(t, kTable1DimB, r.b);
    data.SetPrefValue(t, 0, r.x);
    data.SetPrefValue(t, 1, r.y);
  }
  return data;
}

std::vector<RStarTree::ExplicitEntry> Table1TreeEntries() {
  std::vector<RStarTree::ExplicitEntry> entries;
  for (TupleId t = 0; t < Rows().size(); ++t) {
    const Row& r = Rows()[t];
    entries.emplace_back(t, std::vector<float>{r.x, r.y}, r.path);
  }
  return entries;
}

}  // namespace pcube
