// Micro-benchmarks for the P-Cube building blocks: bitmap codecs, signature
// probing, B+-tree operations, R-tree node access, and the skyline engine's
// dominance kernel (DESIGN.md §12, scalar vs AVX2). These quantify the
// constants behind the figure-level results (e.g. why Csig << CR-tree).
//
// Smoke mode: PCUBE_SIMD_SMOKE=1 skips the google-benchmark harness and
// instead times the two dominance kernels and the two page-CRC kernels
// directly (best-of-N so the measurement survives a noisy single-core CI
// box), writes BENCH_simd.json to the working directory, and exits non-zero
// when, on a CPU with AVX2, the AVX2 dominance kernel beats the scalar one
// by less than 1.5x, or, on a CPU with PCLMULQDQ, the carry-less-multiply
// CRC beats slicing-by-8 on a 4 KiB page by less than 4x. A CPU without
// the instructions only reports. scripts/ci.sh runs this as the `simd`
// phase.
#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "bitmap/codec.h"
#include "core/signature_cursor.h"
#include "query/dominance_kernels.h"
#include "storage/checksum.h"

namespace pcube::bench {
namespace {

void BM_BitmapEncode(benchmark::State& state) {
  Random rng(1);
  size_t nbits = static_cast<size_t>(state.range(0));
  int density_pct = static_cast<int>(state.range(1));
  BitVector bits(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    if (rng.Uniform(100) < static_cast<uint64_t>(density_pct)) bits.Set(i);
  }
  for (auto _ : state) {
    std::vector<uint8_t> buf;
    BitmapCodec::Encode(bits, &buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_BitmapEncode)
    ->Args({128, 5})
    ->Args({128, 50})
    ->Args({2048, 5})
    ->Args({2048, 50});

void BM_BitmapDecode(benchmark::State& state) {
  Random rng(2);
  size_t nbits = static_cast<size_t>(state.range(0));
  BitVector bits(nbits);
  for (size_t i = 0; i < nbits; ++i) {
    if (rng.Uniform(100) < 20) bits.Set(i);
  }
  std::vector<uint8_t> buf;
  BitmapCodec::Encode(bits, &buf);
  for (auto _ : state) {
    size_t offset = 0;
    BitVector out;
    PCUBE_CHECK_OK(BitmapCodec::Decode(buf.data(), buf.size(), &offset, &out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BitmapDecode)->Arg(128)->Arg(2048);

void BM_SignatureProbe(benchmark::State& state) {
  Workbench* wb = CachedWorkbench("micro", [] {
    return GenerateSynthetic(PaperConfig(50000));
  });
  auto probe = wb->cube()->MakeProbe(OnePredicate(100));
  PCUBE_CHECK(probe.ok());
  // Collect some real tuple paths to probe.
  std::vector<Path> paths;
  PCUBE_CHECK_OK(wb->tree()->CollectPaths(
      [&](TupleId tid, const Path& p, std::span<const float>) {
        if (tid % 997 == 0) paths.push_back(p);
      }));
  size_t i = 0;
  for (auto _ : state) {
    auto r = (*probe)->Test(paths[i++ % paths.size()]);
    PCUBE_CHECK(r.ok());
    benchmark::DoNotOptimize(*r);
  }
}
BENCHMARK(BM_SignatureProbe);

void BM_BPlusTreeGet(benchmark::State& state) {
  static MemoryPageManager* pm = new MemoryPageManager();
  static IoStats* stats = new IoStats();
  static BufferPool* pool = new BufferPool(pm, 1 << 14, stats);
  static BPlusTree* tree = [] {
    std::vector<std::pair<uint64_t, uint64_t>> sorted;
    for (uint64_t k = 0; k < 200000; ++k) sorted.emplace_back(k * 3, k);
    auto t = BPlusTree::BulkLoad(pool, sorted);
    PCUBE_CHECK(t.ok());
    return new BPlusTree(std::move(*t));
  }();
  Random rng(3);
  for (auto _ : state) {
    uint64_t k = rng.Uniform(200000) * 3;
    auto v = tree->Get(k);
    PCUBE_CHECK(v.ok());
    benchmark::DoNotOptimize(*v);
  }
}
BENCHMARK(BM_BPlusTreeGet);

void BM_RTreeNodeRead(benchmark::State& state) {
  Workbench* wb = CachedWorkbench("micro", [] {
    return GenerateSynthetic(PaperConfig(50000));
  });
  for (auto _ : state) {
    auto handle = wb->tree()->ReadNode(wb->tree()->root());
    PCUBE_CHECK(handle.ok());
    benchmark::DoNotOptimize(handle->get());
  }
}
BENCHMARK(BM_RTreeNodeRead);

void BM_SkylineQueryEndToEnd(benchmark::State& state) {
  Workbench* wb = CachedWorkbench("micro", [] {
    return GenerateSynthetic(PaperConfig(50000));
  });
  QueryRequest request = QueryRequest::Skyline(OnePredicate(100));
  request.hint = PlanHint::kSignature;  // bypasses the L1 result cache
  for (auto _ : state) {
    auto out = wb->Run(request);
    PCUBE_CHECK(out.ok()) << out.status().ToString();
    PCUBE_CHECK(!out->degraded) << out->degraded_reason;
    benchmark::DoNotOptimize(out->tids.size());
  }
}
BENCHMARK(BM_SkylineQueryEndToEnd)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- dominance kernel

// range(0) = skyline members, range(1) = 0 scalar / 1 vector. Candidate is
// dominated by every member and the limit is never reached, so both paths
// do the full streaming pass (worst case, no early exit).
void BM_KernelDominance(benchmark::State& state) {
  bool vec = state.range(1) != 0;
  if (vec && !DominanceWindow::CpuHasAvx2()) {
    state.SkipWithError("no AVX2 on this CPU");
    return;
  }
  Random rng(20);
  const size_t dims = 4;
  size_t members = static_cast<size_t>(state.range(0));
  DominanceWindow window(dims);
  double coords[dims];
  for (size_t i = 0; i < members; ++i) {
    for (auto& c : coords) c = rng.NextDouble();
    window.Append(coords);
  }
  double cand[dims] = {2.0, 2.0, 2.0, 2.0};
  for (auto _ : state) {
    size_t c;
#if defined(__x86_64__)
    c = vec ? window.CountDominatorsAvx2(cand, members + 1)
            : window.CountDominatorsScalar(cand, members + 1);
#else
    c = window.CountDominatorsScalar(cand, members + 1);
#endif
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_KernelDominance)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1});

// ------------------------------------------------------- SIMD smoke gate

/// Minimum of `reps` timings of `iters` calls of `body` — seconds per call.
template <typename Body>
double BestSecondsPerCall(int reps, int iters, Body body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (int i = 0; i < iters; ++i) body();
    best = std::min(best, t.ElapsedSeconds() / iters);
  }
  return best;
}

int RunSimdSmoke() {
  const int kReps = 9;
  const int kIters = 4000;
  const size_t kMembers = 512;
  const size_t kDims = 4;
  Random rng(29);
  DominanceWindow window(kDims);
  double coords[kDims];
  for (size_t i = 0; i < kMembers; ++i) {
    for (auto& c : coords) c = rng.NextDouble();
    window.Append(coords);
  }
  double cand[kDims] = {2.0, 2.0, 2.0, 2.0};

  double dom_scalar = BestSecondsPerCall(kReps, kIters, [&] {
    benchmark::DoNotOptimize(
        window.CountDominatorsScalar(cand, kMembers + 1));
  });
  double dom_vec = dom_scalar;
  const bool have_avx2 = DominanceWindow::CpuHasAvx2();
#if defined(__x86_64__)
  if (have_avx2) {
    dom_vec = BestSecondsPerCall(kReps, kIters, [&] {
      benchmark::DoNotOptimize(
          window.CountDominatorsAvx2(cand, kMembers + 1));
    });
  }
#endif
  double dom_speedup = dom_scalar / dom_vec;

  std::vector<uint8_t> page(kPageSize);
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng.Uniform(256));
  double crc_scalar = BestSecondsPerCall(kReps, kIters, [&] {
    benchmark::DoNotOptimize(Crc32Scalar(page.data(), page.size()));
  });
  double crc_clmul = crc_scalar;
  const bool have_pclmul = CpuHasPclmul();
#if defined(__x86_64__)
  if (have_pclmul) {
    crc_clmul = BestSecondsPerCall(kReps, kIters, [&] {
      benchmark::DoNotOptimize(Crc32Clmul(page.data(), page.size()));
    });
  }
#endif
  double crc_speedup = crc_scalar / crc_clmul;

  std::printf("simd smoke: cpu_avx2=%d cpu_pclmul=%d\n", have_avx2 ? 1 : 0,
              have_pclmul ? 1 : 0);
  std::printf("  dominance   scalar %8.1f ns  vector %8.1f ns  %.2fx\n",
              dom_scalar * 1e9, dom_vec * 1e9, dom_speedup);
  std::printf("  page crc    scalar %8.1f ns  clmul  %8.1f ns  %.2fx\n",
              crc_scalar * 1e9, crc_clmul * 1e9, crc_speedup);

  {
    std::ofstream json("BENCH_simd.json");
    json << "{\n"
         << "  \"cpu_avx2\": " << (have_avx2 ? "true" : "false") << ",\n"
         << "  \"dominance_members\": " << kMembers << ",\n"
         << "  \"dominance_scalar_ns\": " << dom_scalar * 1e9 << ",\n"
         << "  \"dominance_vector_ns\": " << dom_vec * 1e9 << ",\n"
         << "  \"dominance_speedup\": " << dom_speedup << ",\n"
         << "  \"cpu_pclmul\": " << (have_pclmul ? "true" : "false") << ",\n"
         << "  \"crc_bytes\": " << page.size() << ",\n"
         << "  \"crc_scalar_ns\": " << crc_scalar * 1e9 << ",\n"
         << "  \"crc_clmul_ns\": " << crc_clmul * 1e9 << ",\n"
         << "  \"crc_speedup\": " << crc_speedup << "\n"
         << "}\n";
  }

  // Gate only where the engine runs the fast kernel: a CPU without the
  // instructions reports but cannot regress.
  if (have_avx2 && dom_speedup < 1.5) {
    std::fprintf(stderr,
                 "simd smoke: batched dominance speedup %.2fx < 1.5x\n",
                 dom_speedup);
    return 1;
  }
  if (have_pclmul && crc_speedup < 4.0) {
    std::fprintf(stderr, "simd smoke: page crc speedup %.2fx < 4x\n",
                 crc_speedup);
    return 1;
  }
  std::printf("simd smoke: ok\n");
  return 0;
}

}  // namespace

int SimdSmokeMain() { return RunSimdSmoke(); }

}  // namespace pcube::bench

int main(int argc, char** argv) {
  const char* smoke = std::getenv("PCUBE_SIMD_SMOKE");
  if (smoke != nullptr && smoke[0] == '1') {
    return pcube::bench::SimdSmokeMain();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
