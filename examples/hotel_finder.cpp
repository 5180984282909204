// Extension-query tour (paper §VII): a hotel-booking scenario that
// exercises the dynamic skyline, k-skyband, and convex-hull preference
// queries — all signature-pruned through the same P-Cube.
//
// Schema: (city, stars | price, distance-to-venue). A traveller attending a
// conference wants hotels in one city that are good trade-offs between
// price and distance to the venue.
//
//   ./hotel_finder [num_hotels]
#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "query/convex_hull.h"
#include "workbench/workbench.h"

using namespace pcube;

namespace {

constexpr int kCity = 0;   // 30 cities
constexpr int kStars = 1;  // 1..5 stars (codes 0..4)

Dataset MakeHotels(uint64_t n) {
  Schema schema;
  schema.num_bool = 2;
  schema.num_pref = 2;  // price, distance (normalised)
  schema.bool_cardinality = {30, 5};
  Dataset data(schema, n);
  Random rng(777);
  for (TupleId t = 0; t < n; ++t) {
    uint32_t stars = static_cast<uint32_t>(rng.Uniform(5));
    data.SetBoolValue(t, kCity, static_cast<uint32_t>(rng.Uniform(30)));
    data.SetBoolValue(t, kStars, stars);
    // Central hotels cost more; stars raise price.
    double distance = rng.NextDouble();
    double price = std::clamp(
        0.25 + 0.12 * stars - 0.3 * distance + 0.15 * rng.NextGaussian(), 0.0,
        1.0);
    data.SetPrefValue(t, 0, static_cast<float>(price));
    data.SetPrefValue(t, 1, static_cast<float>(distance));
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 80000;
  std::printf("hotel catalog: %llu hotels (city, stars | price, distance)\n\n",
              static_cast<unsigned long long>(n));
  auto wb = Workbench::Build(MakeHotels(n), WorkbenchOptions{});
  PCUBE_CHECK(wb.ok());
  Workbench& w = **wb;
  PredicateSet in_city{{kCity, 7}};

  // 1. Ordinary skyline: the price/distance trade-off frontier in city 7,
  // on the signature plan.
  QueryRequest skyline = QueryRequest::Skyline(in_city);
  skyline.hint = PlanHint::kSignature;
  auto sky = w.Run(skyline);
  PCUBE_CHECK(sky.ok()) << sky.status().ToString();
  PCUBE_CHECK(!sky->degraded) << sky->degraded_reason;
  std::printf("skyline of city 7: %zu hotels on the price/distance frontier\n",
              sky->tids.size());

  // 2. k-skyband: hotels dominated by fewer than 3 others — the shortlist
  // with backup options when frontier hotels sell out. Skybands and dynamic
  // skylines always run on the signature plan.
  {
    SkylineQueryOptions options;
    options.skyband_k = 3;
    auto band = w.Run(QueryRequest::Skyline(in_city, options));
    PCUBE_CHECK(band.ok());
    std::printf("3-skyband of city 7: %zu hotels (skyline + backups)\n",
                band->tids.size());
  }

  // 3. Dynamic skyline around a reference hotel: "alternatives to the one I
  // saw at (price 0.35, distance 0.20) that are closer to it in every
  // respect than each other".
  {
    SkylineQueryOptions options;
    options.origin = {0.35f, 0.20f};
    auto dynamic = w.Run(QueryRequest::Skyline(in_city, options));
    PCUBE_CHECK(dynamic.ok());
    std::printf("dynamic skyline around (0.35, 0.20): %zu alternatives\n",
                dynamic->tids.size());
  }

  // 4. Convex hull: the hotels that are optimal for SOME weighting of
  // price vs distance — what a "sort by best value" slider would surface.
  {
    auto probe = w.cube()->MakeProbe(in_city);
    PCUBE_CHECK(probe.ok());
    auto hull = ConvexHullQuery(*w.tree(), probe->get(), 0, 1);
    PCUBE_CHECK(hull.ok());
    std::printf("convex hull: %zu hotels are linear-optimal; the slider "
                "sweeps:\n",
                hull->hull.size());
    for (const HullVertex& v : hull->hull) {
      std::printf("  hotel #%-8llu price %.3f  distance %.3f\n",
                  static_cast<unsigned long long>(v.tid), v.x, v.y);
    }
  }

  IoStats io = *w.stats();
  std::printf("\nsession disk accounting: %s\n", io.ToString().c_str());
  return 0;
}
