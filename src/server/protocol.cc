#include "server/protocol.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/bit_util.h"

namespace pcube::wire {

namespace {

// ---- Little-endian byte-buffer writer/reader (catalog.cc idiom) ----------

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  template <typename T>
  void LE(T v) {
    uint8_t buf[sizeof(T)];
    bit_util::StoreLE(buf, v);
    out_->append(reinterpret_cast<const char*>(buf), sizeof(T));
  }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    LE(bits);
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    LE(bits);
  }
  void Bytes(const std::string& s) { out_->append(s); }

 private:
  std::string* out_;
};

// Every read is bounds-checked; a decode must end with ExpectDone() so
// trailing garbage is an error rather than silently ignored input.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}

  Status U8(uint8_t* v) { return Fixed(v); }
  Status U16(uint16_t* v) { return Fixed(v); }
  Status U32(uint32_t* v) { return Fixed(v); }
  Status U64(uint64_t* v) { return Fixed(v); }
  Status F32(float* v) {
    uint32_t bits = 0;
    PCUBE_RETURN_NOT_OK(Fixed(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }
  Status F64(double* v) {
    uint64_t bits = 0;
    PCUBE_RETURN_NOT_OK(Fixed(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }
  Status Bytes(size_t n, std::string* out) {
    if (Remaining() < n) return Truncated();
    out->assign(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return Status::OK();
  }
  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }
  Status ExpectDone() const {
    if (p_ != end_) {
      return Status::Corruption("frame payload has trailing bytes");
    }
    return Status::OK();
  }

 private:
  template <typename T>
  Status Fixed(T* v) {
    if (Remaining() < sizeof(T)) return Truncated();
    *v = bit_util::LoadLE<T>(p_);
    p_ += sizeof(T);
    return Status::OK();
  }
  static Status Truncated() {
    return Status::Corruption("frame payload truncated");
  }

  const uint8_t* p_;
  const uint8_t* end_;
};

bool ValidTenant(const std::string& tenant) {
  if (tenant.size() > kMaxTenantBytes) return false;
  for (char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Status ReadFiniteF64(Reader* r, const char* what, double* v) {
  PCUBE_RETURN_NOT_OK(r->F64(v));
  if (!std::isfinite(*v)) {
    return Status::InvalidArgument(std::string(what) + " is not finite");
  }
  return Status::OK();
}

Status ReadDoubleList(Reader* r, size_t n, const char* what,
                      std::vector<double>* out) {
  out->clear();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double v = 0;
    PCUBE_RETURN_NOT_OK(ReadFiniteF64(r, what, &v));
    out->push_back(v);
  }
  return Status::OK();
}

Status ReadNonNegativeList(Reader* r, size_t n, const char* what,
                           std::vector<double>* out) {
  PCUBE_RETURN_NOT_OK(ReadDoubleList(r, n, what, out));
  // ranking.h constructors PCUBE_CHECK weights >= 0 — reaching that check
  // from wire bytes would let a peer abort the server, so reject here.
  for (double v : *out) {
    if (v < 0) {
      return Status::InvalidArgument(std::string(what) + " is negative");
    }
  }
  return Status::OK();
}

// Wire encoding of ranking kinds (part of the protocol, do not renumber).
constexpr uint8_t kRankLinear = 1;
constexpr uint8_t kRankWeightedL2 = 2;
constexpr uint8_t kRankMinkowski = 3;

struct RankingWire {
  uint8_t kind = 0;
  std::vector<double> weights;
  std::vector<double> target;  // wl2 / minkowski
  double p = 0;                // minkowski
};

/// Recovers the wire form of a ranking. Only the three stock rankings of
/// ranking.h are representable; a custom RankingFunction subclass is
/// InvalidArgument (the server could not reconstruct it anyway).
Status RankingToWire(const RankingFunction& f, RankingWire* out) {
  if (const auto* lin = dynamic_cast<const LinearRanking*>(&f)) {
    out->kind = kRankLinear;
    out->weights = lin->weights();
    return Status::OK();
  }
  if (const auto* wl2 = dynamic_cast<const WeightedL2Ranking*>(&f)) {
    out->kind = kRankWeightedL2;
    out->target = wl2->target();
    out->weights = wl2->weights();
    return Status::OK();
  }
  if (const auto* mink = dynamic_cast<const MinkowskiRanking*>(&f)) {
    out->kind = kRankMinkowski;
    out->target = mink->target();
    out->weights = mink->weights();
    out->p = mink->p();
    return Status::OK();
  }
  return Status::InvalidArgument(
      "ranking function is not representable on the wire");
}

}  // namespace

uint8_t StatusCodeToWire(StatusCode code) {
  // Stable protocol values, independent of the enum's in-memory order.
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 1;
    case StatusCode::kNotFound: return 2;
    case StatusCode::kAlreadyExists: return 3;
    case StatusCode::kOutOfRange: return 4;
    case StatusCode::kCorruption: return 5;
    case StatusCode::kIoError: return 6;
    case StatusCode::kNotSupported: return 7;
    case StatusCode::kInternal: return 8;
    case StatusCode::kTimeout: return 9;
    case StatusCode::kResourceExhausted: return 10;
  }
  return 8;
}

StatusCode StatusCodeFromWire(uint8_t wire) {
  switch (wire) {
    case 0: return StatusCode::kOk;
    case 1: return StatusCode::kInvalidArgument;
    case 2: return StatusCode::kNotFound;
    case 3: return StatusCode::kAlreadyExists;
    case 4: return StatusCode::kOutOfRange;
    case 5: return StatusCode::kCorruption;
    case 6: return StatusCode::kIoError;
    case 7: return StatusCode::kNotSupported;
    case 8: return StatusCode::kInternal;
    case 9: return StatusCode::kTimeout;
    case 10: return StatusCode::kResourceExhausted;
    default: return StatusCode::kInternal;
  }
}

void AppendFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  // pcube-lint: trusted(encode side — the payload was produced by this
  // process, not read off the wire; oversize here is a local logic bug)
  PCUBE_CHECK_LE(payload.size(), kMaxPayload);
  Writer w(out);
  w.LE<uint32_t>(kMagic);
  w.U8(kVersion);
  w.U8(static_cast<uint8_t>(type));
  w.LE<uint16_t>(0);  // reserved, must be zero
  w.LE<uint32_t>(static_cast<uint32_t>(payload.size()));
  w.Bytes(payload);
}

Result<std::string> EncodeQuery(const QueryEnvelope& envelope) {
  const QueryRequest& q = envelope.request;
  if (!ValidTenant(envelope.tenant)) {
    return Status::InvalidArgument("tenant must match [A-Za-z0-9_.-]{0,64}");
  }
  if (q.preds.size() > kMaxPredicates) {
    return Status::InvalidArgument("too many predicates for the wire");
  }
  for (const Predicate& p : q.preds.predicates()) {
    if (p.dim < 0 || p.dim > kMaxDimIndex) {
      return Status::InvalidArgument("predicate dimension out of wire range");
    }
  }
  if (q.deadline_ms > kMaxDeadlineMs) {
    return Status::InvalidArgument("deadline_ms exceeds the wire cap");
  }

  std::string payload;
  Writer w(&payload);
  w.U8(static_cast<uint8_t>(envelope.tenant.size()));
  w.Bytes(envelope.tenant);
  w.U8(q.kind == QueryRequest::Kind::kSkyline ? 0 : 1);
  w.LE<uint64_t>(q.deadline_ms);
  w.LE<uint16_t>(static_cast<uint16_t>(q.preds.size()));
  for (const Predicate& p : q.preds.predicates()) {
    w.LE<uint16_t>(static_cast<uint16_t>(p.dim));
    w.LE<uint32_t>(p.value);
  }

  if (q.kind == QueryRequest::Kind::kSkyline) {
    const SkylineQueryOptions& o = q.skyline;
    if (o.pref_dims.size() > kMaxDims || o.origin.size() > kMaxDims) {
      return Status::InvalidArgument("too many skyline dims for the wire");
    }
    for (int d : o.pref_dims) {
      if (d < 0 || d > kMaxDimIndex) {
        return Status::InvalidArgument("pref dim out of wire range");
      }
    }
    for (float v : o.origin) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("origin coordinate is not finite");
      }
    }
    if (o.skyband_k < 1 || o.skyband_k > kMaxSkybandK) {
      return Status::InvalidArgument("skyband_k out of wire range");
    }
    w.LE<uint16_t>(static_cast<uint16_t>(o.pref_dims.size()));
    for (int d : o.pref_dims) w.LE<uint16_t>(static_cast<uint16_t>(d));
    w.LE<uint16_t>(static_cast<uint16_t>(o.origin.size()));
    for (float v : o.origin) w.F32(v);
    w.LE<uint32_t>(static_cast<uint32_t>(o.skyband_k));
  } else {
    if (q.k < 1 || q.k > kMaxK) {
      return Status::InvalidArgument("k out of wire range");
    }
    if (q.ranking == nullptr) {
      return Status::InvalidArgument("top-k query without a ranking");
    }
    RankingWire rw;
    PCUBE_RETURN_NOT_OK(RankingToWire(*q.ranking, &rw));
    if (rw.weights.size() > kMaxDims || rw.weights.empty()) {
      return Status::InvalidArgument("ranking dims out of wire range");
    }
    w.LE<uint64_t>(q.k);
    w.U8(rw.kind);
    w.LE<uint16_t>(static_cast<uint16_t>(rw.weights.size()));
    if (rw.kind == kRankMinkowski) w.F64(rw.p);
    if (rw.kind != kRankLinear) {
      for (double v : rw.target) w.F64(v);
    }
    for (double v : rw.weights) w.F64(v);
  }
  if (payload.size() > kMaxPayload) {
    return Status::InvalidArgument("query does not fit in one frame");
  }
  return payload;
}

Status DecodeQuery(const uint8_t* data, size_t size, QueryEnvelope* out) {
  Reader r(data, size);
  uint8_t tenant_len = 0;
  PCUBE_RETURN_NOT_OK(r.U8(&tenant_len));
  if (tenant_len > kMaxTenantBytes) {
    return Status::InvalidArgument("tenant id too long");
  }
  PCUBE_RETURN_NOT_OK(r.Bytes(tenant_len, &out->tenant));
  if (!ValidTenant(out->tenant)) {
    return Status::InvalidArgument("tenant id has invalid characters");
  }

  QueryRequest q;
  uint8_t kind = 0;
  PCUBE_RETURN_NOT_OK(r.U8(&kind));
  if (kind > 1) return Status::InvalidArgument("unknown query kind");
  q.kind = kind == 0 ? QueryRequest::Kind::kSkyline : QueryRequest::Kind::kTopK;
  PCUBE_RETURN_NOT_OK(r.U64(&q.deadline_ms));
  if (q.deadline_ms > kMaxDeadlineMs) {
    return Status::InvalidArgument("deadline_ms exceeds the wire cap");
  }

  uint16_t npreds = 0;
  PCUBE_RETURN_NOT_OK(r.U16(&npreds));
  if (npreds > kMaxPredicates) {
    return Status::InvalidArgument("too many predicates");
  }
  for (uint16_t i = 0; i < npreds; ++i) {
    uint16_t dim = 0;
    uint32_t value = 0;
    PCUBE_RETURN_NOT_OK(r.U16(&dim));
    PCUBE_RETURN_NOT_OK(r.U32(&value));
    if (dim > kMaxDimIndex) {
      return Status::InvalidArgument("predicate dimension out of range");
    }
    q.preds.Add(Predicate{static_cast<int>(dim), value});
  }

  if (q.kind == QueryRequest::Kind::kSkyline) {
    uint16_t npref = 0;
    PCUBE_RETURN_NOT_OK(r.U16(&npref));
    if (npref > kMaxDims) return Status::InvalidArgument("too many pref dims");
    q.skyline.pref_dims.reserve(npref);
    for (uint16_t i = 0; i < npref; ++i) {
      uint16_t d = 0;
      PCUBE_RETURN_NOT_OK(r.U16(&d));
      if (d > kMaxDimIndex) {
        return Status::InvalidArgument("pref dim out of range");
      }
      q.skyline.pref_dims.push_back(static_cast<int>(d));
    }
    uint16_t norigin = 0;
    PCUBE_RETURN_NOT_OK(r.U16(&norigin));
    if (norigin > kMaxDims) {
      return Status::InvalidArgument("origin has too many dims");
    }
    q.skyline.origin.reserve(norigin);
    for (uint16_t i = 0; i < norigin; ++i) {
      float v = 0;
      PCUBE_RETURN_NOT_OK(r.F32(&v));
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("origin coordinate is not finite");
      }
      q.skyline.origin.push_back(v);
    }
    uint32_t band = 0;
    PCUBE_RETURN_NOT_OK(r.U32(&band));
    if (band < 1 || band > kMaxSkybandK) {
      return Status::InvalidArgument("skyband_k out of range");
    }
    q.skyline.skyband_k = band;
  } else {
    uint64_t k = 0;
    PCUBE_RETURN_NOT_OK(r.U64(&k));
    if (k < 1 || k > kMaxK) return Status::InvalidArgument("k out of range");
    q.k = k;
    uint8_t rank_kind = 0;
    uint16_t ndims = 0;
    PCUBE_RETURN_NOT_OK(r.U8(&rank_kind));
    PCUBE_RETURN_NOT_OK(r.U16(&ndims));
    if (ndims < 1 || ndims > kMaxDims) {
      return Status::InvalidArgument("ranking dims out of range");
    }
    std::vector<double> weights, target;
    switch (rank_kind) {
      case kRankLinear:
        PCUBE_RETURN_NOT_OK(ReadDoubleList(&r, ndims, "weight", &weights));
        q.ranking = std::make_shared<LinearRanking>(std::move(weights));
        break;
      case kRankWeightedL2:
        PCUBE_RETURN_NOT_OK(ReadDoubleList(&r, ndims, "target", &target));
        PCUBE_RETURN_NOT_OK(ReadNonNegativeList(&r, ndims, "weight", &weights));
        q.ranking = std::make_shared<WeightedL2Ranking>(std::move(target),
                                                        std::move(weights));
        break;
      case kRankMinkowski: {
        double p = 0;
        PCUBE_RETURN_NOT_OK(ReadFiniteF64(&r, "minkowski p", &p));
        if (p < 1) return Status::InvalidArgument("minkowski p must be >= 1");
        PCUBE_RETURN_NOT_OK(ReadDoubleList(&r, ndims, "target", &target));
        PCUBE_RETURN_NOT_OK(ReadNonNegativeList(&r, ndims, "weight", &weights));
        q.ranking = std::make_shared<MinkowskiRanking>(
            std::move(target), std::move(weights), p);
        break;
      }
      default:
        return Status::InvalidArgument("unknown ranking kind");
    }
  }
  PCUBE_RETURN_NOT_OK(r.ExpectDone());
  out->request = std::move(q);
  return Status::OK();
}

Result<std::string> EncodeWrite(const WriteEnvelope& envelope) {
  if (!ValidTenant(envelope.tenant)) {
    return Status::InvalidArgument("tenant must match [A-Za-z0-9_.-]{0,64}");
  }
  auto batch = EncodeWriteBatch(envelope.batch);
  if (!batch.ok()) return batch.status();
  std::string payload;
  Writer w(&payload);
  w.U8(static_cast<uint8_t>(envelope.tenant.size()));
  w.Bytes(envelope.tenant);
  w.Bytes(*batch);
  if (payload.size() > kMaxPayload) {
    return Status::InvalidArgument(
        "write batch does not fit in one frame; split it");
  }
  return payload;
}

Status DecodeWrite(const uint8_t* data, size_t size, WriteEnvelope* out) {
  Reader r(data, size);
  uint8_t tenant_len = 0;
  PCUBE_RETURN_NOT_OK(r.U8(&tenant_len));
  if (tenant_len > kMaxTenantBytes) {
    return Status::InvalidArgument("tenant id too long");
  }
  PCUBE_RETURN_NOT_OK(r.Bytes(tenant_len, &out->tenant));
  if (!ValidTenant(out->tenant)) {
    return Status::InvalidArgument("tenant id has invalid characters");
  }
  // The batch codec enforces its own caps and exact-length contract, so the
  // whole remainder is handed over (no trailing bytes can survive).
  return DecodeWriteBatch(data + (size - r.Remaining()), r.Remaining(),
                          &out->batch);
}

std::string EncodeWriteAck(const WriteResult& result) {
  std::string payload;
  Writer w(&payload);
  w.LE<uint64_t>(result.lsn);
  w.LE<uint64_t>(result.first_tid);
  w.LE<uint64_t>(result.epoch);
  w.F64(result.commit_seconds);
  w.LE<uint32_t>(result.group_size);
  w.U8(result.durable ? 1 : 0);
  return payload;
}

Status DecodeWriteAck(const uint8_t* data, size_t size, WriteResult* out) {
  Reader r(data, size);
  PCUBE_RETURN_NOT_OK(r.U64(&out->lsn));
  PCUBE_RETURN_NOT_OK(r.U64(&out->first_tid));
  PCUBE_RETURN_NOT_OK(r.U64(&out->epoch));
  PCUBE_RETURN_NOT_OK(r.F64(&out->commit_seconds));
  if (!std::isfinite(out->commit_seconds) || out->commit_seconds < 0) {
    return Status::Corruption("commit_seconds is not a finite duration");
  }
  PCUBE_RETURN_NOT_OK(r.U32(&out->group_size));
  uint8_t durable = 0;
  PCUBE_RETURN_NOT_OK(r.U8(&durable));
  if (durable > 1) return Status::Corruption("durable flag out of range");
  out->durable = durable != 0;
  return r.ExpectDone();
}

std::string EncodeResultHeader(const ResultHeader& h) {
  std::string payload;
  Writer w(&payload);
  w.LE<uint64_t>(h.trace_id);
  w.LE<uint64_t>(h.result_count);
  w.U8(h.has_scores ? 1 : 0);
  w.U8(h.plan);
  w.U8(h.cache);
  w.U8(h.degraded ? 1 : 0);
  w.LE<uint32_t>(h.fanout_shards);
  w.F64(h.seconds);
  w.F64(h.queue_wait_seconds);
  w.LE<uint64_t>(h.io_reads);
  w.LE<uint64_t>(h.counters.heap_peak);
  w.LE<uint64_t>(h.counters.nodes_expanded);
  w.LE<uint64_t>(h.counters.pruned_boolean);
  w.LE<uint64_t>(h.counters.pruned_preference);
  w.LE<uint64_t>(h.counters.verified);
  w.F64(h.counters.sig_seconds);
  return payload;
}

Status DecodeResultHeader(const uint8_t* data, size_t size,
                          ResultHeader* out) {
  Reader r(data, size);
  PCUBE_RETURN_NOT_OK(r.U64(&out->trace_id));
  PCUBE_RETURN_NOT_OK(r.U64(&out->result_count));
  uint8_t has_scores = 0, degraded = 0;
  PCUBE_RETURN_NOT_OK(r.U8(&has_scores));
  PCUBE_RETURN_NOT_OK(r.U8(&out->plan));
  PCUBE_RETURN_NOT_OK(r.U8(&out->cache));
  PCUBE_RETURN_NOT_OK(r.U8(&degraded));
  if (has_scores > 1 || degraded > 1 || out->plan > 1 || out->cache > 4) {
    return Status::Corruption("result header field out of range");
  }
  if (out->result_count > kMaxResultTuples) {
    return Status::Corruption("result count exceeds the client cap");
  }
  out->has_scores = has_scores != 0;
  out->degraded = degraded != 0;
  PCUBE_RETURN_NOT_OK(r.U32(&out->fanout_shards));
  PCUBE_RETURN_NOT_OK(r.F64(&out->seconds));
  PCUBE_RETURN_NOT_OK(r.F64(&out->queue_wait_seconds));
  PCUBE_RETURN_NOT_OK(r.U64(&out->io_reads));
  PCUBE_RETURN_NOT_OK(r.U64(&out->counters.heap_peak));
  PCUBE_RETURN_NOT_OK(r.U64(&out->counters.nodes_expanded));
  PCUBE_RETURN_NOT_OK(r.U64(&out->counters.pruned_boolean));
  PCUBE_RETURN_NOT_OK(r.U64(&out->counters.pruned_preference));
  PCUBE_RETURN_NOT_OK(r.U64(&out->counters.verified));
  PCUBE_RETURN_NOT_OK(r.F64(&out->counters.sig_seconds));
  return r.ExpectDone();
}

std::string EncodeResultChunk(const std::vector<TupleId>& tids,
                              const std::vector<double>& scores,
                              size_t first, size_t count) {
  // pcube-lint: trusted(encode side — the caller slices locally computed
  // results; the bound is an invariant of the chunking loop, not wire data)
  PCUBE_CHECK_LE(count, kChunkTuples);
  // pcube-lint: trusted(same — local chunking invariant)
  PCUBE_CHECK_LE(first + count, tids.size());
  const bool has_scores = !scores.empty();
  std::string payload;
  Writer w(&payload);
  w.LE<uint32_t>(static_cast<uint32_t>(count));
  w.U8(has_scores ? 1 : 0);
  for (size_t i = first; i < first + count; ++i) w.LE<uint64_t>(tids[i]);
  if (has_scores) {
    for (size_t i = first; i < first + count; ++i) w.F64(scores[i]);
  }
  return payload;
}

Status DecodeResultChunk(const uint8_t* data, size_t size, bool has_scores,
                         std::vector<TupleId>* tids,
                         std::vector<double>* scores) {
  Reader r(data, size);
  uint32_t count = 0;
  uint8_t chunk_scores = 0;
  PCUBE_RETURN_NOT_OK(r.U32(&count));
  PCUBE_RETURN_NOT_OK(r.U8(&chunk_scores));
  if (count < 1 || count > kChunkTuples) {
    return Status::Corruption("chunk tuple count out of range");
  }
  if (chunk_scores > 1 || (chunk_scores != 0) != has_scores) {
    return Status::Corruption("chunk score flag contradicts result header");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t tid = 0;
    PCUBE_RETURN_NOT_OK(r.U64(&tid));
    tids->push_back(tid);
  }
  if (has_scores) {
    for (uint32_t i = 0; i < count; ++i) {
      double v = 0;
      PCUBE_RETURN_NOT_OK(r.F64(&v));
      scores->push_back(v);
    }
  }
  return r.ExpectDone();
}

std::string EncodeError(const Status& status) {
  std::string msg = status.message();
  if (msg.size() > kMaxErrorBytes) msg.resize(kMaxErrorBytes);
  std::string payload;
  Writer w(&payload);
  w.U8(StatusCodeToWire(status.code()));
  w.LE<uint16_t>(static_cast<uint16_t>(msg.size()));
  w.Bytes(msg);
  return payload;
}

Status DecodeError(const uint8_t* data, size_t size) {
  Reader r(data, size);
  uint8_t code = 0;
  uint16_t len = 0;
  PCUBE_RETURN_NOT_OK(r.U8(&code));
  PCUBE_RETURN_NOT_OK(r.U16(&len));
  if (len > kMaxErrorBytes) {
    return Status::Corruption("error message too long");
  }
  std::string msg;
  PCUBE_RETURN_NOT_OK(r.Bytes(len, &msg));
  PCUBE_RETURN_NOT_OK(r.ExpectDone());
  const StatusCode sc = StatusCodeFromWire(code);
  if (sc == StatusCode::kOk) {
    return Status::Corruption("error frame with OK status");
  }
  return Status(sc, std::move(msg));
}

Status ParseFrameHeader(const uint8_t* data, FrameHeader* out) {
  const uint32_t magic = bit_util::LoadLE<uint32_t>(data);
  if (magic != kMagic) return Status::Corruption("bad frame magic");
  out->version = data[4];
  if (out->version != kVersion) {
    return Status::Corruption("unsupported protocol version");
  }
  const uint8_t type = data[5];
  if (type < static_cast<uint8_t>(FrameType::kQuery) ||
      type > static_cast<uint8_t>(FrameType::kWriteAck)) {
    return Status::Corruption("unknown frame type");
  }
  out->type = static_cast<FrameType>(type);
  const uint16_t reserved = bit_util::LoadLE<uint16_t>(data + 6);
  if (reserved != 0) return Status::Corruption("reserved bytes must be zero");
  out->payload_len = bit_util::LoadLE<uint32_t>(data + 8);
  if (out->payload_len > kMaxPayload) {
    return Status::Corruption("frame payload exceeds the 1 MiB cap");
  }
  return Status::OK();
}

Status ReadExact(int fd, void* buf, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r == 0) return Status::IoError("peer closed the connection");
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteAll(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status ReadFrame(int fd, FrameHeader* header, std::string* payload) {
  uint8_t raw[kHeaderBytes];
  PCUBE_RETURN_NOT_OK(ReadExact(fd, raw, sizeof(raw)));
  PCUBE_RETURN_NOT_OK(ParseFrameHeader(raw, header));
  payload->resize(header->payload_len);
  if (header->payload_len > 0) {
    PCUBE_RETURN_NOT_OK(ReadExact(fd, payload->data(), payload->size()));
  }
  return Status::OK();
}

Status WriteFrame(int fd, FrameType type, const std::string& payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  AppendFrame(type, payload, &frame);
  return WriteAll(fd, frame.data(), frame.size());
}

}  // namespace pcube::wire
