#include "service/wire.hpp"

#include <cstring>
#include <type_traits>

#include "core/crc32.hpp"
#include "core/mesh_view.hpp"

namespace aero {

namespace {

constexpr std::uint32_t kRequestMagic = 0x414d5251;   // "AMRQ"
constexpr std::uint32_t kResponseMagic = 0x414d5253;  // "AMRS"
constexpr std::uint32_t kWireVersion = 2;

/// Hard sanity bounds: a corrupt length field must fail decode, not become
/// a multi-gigabyte allocation (same posture as the journal's record cap).
constexpr std::uint64_t kMaxElements = 1u << 16;
constexpr std::uint64_t kMaxSurfacePoints = 1u << 24;
constexpr std::uint32_t kMaxStringBytes = 1u << 20;
constexpr std::uint64_t kMaxMeshBytes = std::uint64_t{1} << 33;  // 8 GiB

// -- byte-order-naive scalar codec (native little-endian, like the pool's
//    serializers and the journal; the service speaks same-ABI processes) ---

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void put_bytes(std::vector<std::uint8_t>& out, const std::uint8_t* p,
               std::size_t n) {
  out.insert(out.end(), p, p + n);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  put_bytes(out, reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// Bounds-checked sequential reader; every get_* returns false on underrun
/// so decoders are a straight-line chain of `if (!r.get(...)) return false`.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : p_(data), end_(data + n) {}

  template <typename T>
  [[nodiscard]] bool get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, p_, sizeof(T));
    p_ += sizeof(T);
    return true;
  }

  [[nodiscard]] bool get_bytes(std::uint8_t* out, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }

  [[nodiscard]] bool get_string(std::string* out) {
    std::uint32_t len = 0;
    if (!get(&len) || len > kMaxStringBytes || remaining() < len) return false;
    out->assign(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    return true;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Stamp the CRC-32 trailer over everything encoded so far.
void seal(std::vector<std::uint8_t>& out) {
  const std::uint32_t crc = crc32(out.data(), out.size());
  put(out, crc);
}

/// Verify the trailer and return the payload span before it.
bool unseal(const std::uint8_t* data, std::size_t n, Reader* out) {
  if (n < sizeof(std::uint32_t)) return false;
  const std::size_t body = n - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, data + body, sizeof(stored));
  if (crc32(data, body) != stored) return false;
  *out = Reader(data, body);
  return true;
}

}  // namespace

const char* to_string(ServiceStatus s) {
  switch (s) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kOverloaded: return "overloaded";
    case ServiceStatus::kInvalidOptions: return "invalid-options";
    case ServiceStatus::kPartial: return "partial";
    case ServiceStatus::kStopped: return "stopped";
    case ServiceStatus::kFailed: return "failed";
    case ServiceStatus::kMalformed: return "malformed";
    case ServiceStatus::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::vector<std::uint8_t> serialize_mesh(const MergedMesh& mesh) {
  // The wire form IS the versioned MeshView blob; the cache stores it
  // verbatim and replayed journals parse it back through MeshView.
  return MeshView(mesh).serialize();
}

bool mesh_blob_counts(const std::vector<std::uint8_t>& blob,
                      std::uint64_t* points, std::uint64_t* triangles) {
  return mesh_blob_status(blob, points, triangles) == MeshBlobStatus::kOk;
}

std::vector<std::uint8_t> encode_request(const MeshRequest& request) {
  const Options& o = request.options;
  std::vector<std::uint8_t> out;
  put(out, kRequestMagic);
  put(out, kWireVersion);
  put(out, request.id);
  put(out, request.priority);
  // Mesh-defining knobs, in options.hpp declaration order.
  put(out, static_cast<std::uint8_t>(o.growth_kind));
  put(out, o.first_height);
  put(out, o.growth_ratio);
  put<std::int32_t>(out, o.max_layers);
  put(out, o.farfield_chords);
  put(out, o.nearbody_margin);
  put(out, o.grade);
  put(out, o.surface_length_factor);
  put<std::uint64_t>(out, o.bl_min_points);
  put<std::int32_t>(out, o.bl_max_level);
  put(out, o.inviscid_target_triangles);
  put<std::int32_t>(out, o.inviscid_max_level);
  // Runtime knobs a tenant may legitimately pick (they do not change the
  // triangles, only how they are computed).
  put<std::int32_t>(out, o.ranks);
  put<std::uint8_t>(out, o.rma ? 1 : 0);
  put<std::uint64_t>(out, o.rma_threshold);
  put<std::int64_t>(out, o.ack_timeout_ms);
  put<std::int64_t>(out, o.heartbeat_timeout_ms);
  put<std::int64_t>(out, o.watchdog_timeout_s);
  put(out, o.fault_rate);
  put(out, o.fault_seed);
  // Geometry.
  put(out, o.airfoil.chord);
  put<std::uint64_t>(out, o.airfoil.elements.size());
  for (const AirfoilElement& e : o.airfoil.elements) {
    put_string(out, e.name);
    put<std::uint64_t>(out, e.surface.size());
    put_bytes(out, reinterpret_cast<const std::uint8_t*>(e.surface.data()),
              e.surface.size() * sizeof(Vec2));
  }
  seal(out);
  return out;
}

bool decode_request(const std::uint8_t* data, std::size_t n,
                    MeshRequest* out) {
  Reader r(nullptr, 0);
  if (!unseal(data, n, &r)) return false;
  std::uint32_t magic = 0, version = 0;
  if (!r.get(&magic) || magic != kRequestMagic) return false;
  if (!r.get(&version) || version != kWireVersion) return false;
  MeshRequest req;
  Options& o = req.options;
  std::uint8_t growth = 0, rma = 0;
  std::int32_t max_layers = 0, bl_max_level = 0, inviscid_max_level = 0;
  std::int32_t ranks = 0;
  std::uint64_t bl_min_points = 0, rma_threshold = 0;
  std::int64_t ack = 0, heartbeat = 0, watchdog = 0;
  if (!r.get(&req.id) || !r.get(&req.priority) || !r.get(&growth) ||
      !r.get(&o.first_height) || !r.get(&o.growth_ratio) ||
      !r.get(&max_layers) || !r.get(&o.farfield_chords) ||
      !r.get(&o.nearbody_margin) || !r.get(&o.grade) ||
      !r.get(&o.surface_length_factor) || !r.get(&bl_min_points) ||
      !r.get(&bl_max_level) || !r.get(&o.inviscid_target_triangles) ||
      !r.get(&inviscid_max_level) || !r.get(&ranks) || !r.get(&rma) ||
      !r.get(&rma_threshold) || !r.get(&ack) ||
      !r.get(&heartbeat) || !r.get(&watchdog) || !r.get(&o.fault_rate) ||
      !r.get(&o.fault_seed)) {
    return false;
  }
  if (growth > static_cast<std::uint8_t>(GrowthKind::kAdaptive)) return false;
  o.growth_kind = static_cast<GrowthKind>(growth);
  o.max_layers = max_layers;
  o.bl_min_points = static_cast<std::size_t>(bl_min_points);
  o.bl_max_level = bl_max_level;
  o.inviscid_max_level = inviscid_max_level;
  o.ranks = ranks;
  o.rma = rma != 0;
  o.rma_threshold = static_cast<std::size_t>(rma_threshold);
  o.ack_timeout_ms = static_cast<long>(ack);
  o.heartbeat_timeout_ms = static_cast<long>(heartbeat);
  o.watchdog_timeout_s = static_cast<long>(watchdog);
  std::uint64_t nelems = 0;
  if (!r.get(&o.airfoil.chord) || !r.get(&nelems) || nelems > kMaxElements) {
    return false;
  }
  o.airfoil.elements.resize(static_cast<std::size_t>(nelems));
  for (AirfoilElement& e : o.airfoil.elements) {
    std::uint64_t npts = 0;
    if (!r.get_string(&e.name) || !r.get(&npts) ||
        npts > kMaxSurfacePoints) {
      return false;
    }
    e.surface.resize(static_cast<std::size_t>(npts));
    if (!r.get_bytes(reinterpret_cast<std::uint8_t*>(e.surface.data()),
                     e.surface.size() * sizeof(Vec2))) {
      return false;
    }
  }
  if (r.remaining() != 0) return false;  // trailing garbage
  *out = std::move(req);
  return true;
}

bool decode_request(const std::vector<std::uint8_t>& bytes, MeshRequest* out) {
  return decode_request(bytes.data(), bytes.size(), out);
}

std::vector<std::uint8_t> encode_response(const MeshResponse& response) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + response.error.size() + response.mesh_blob.size());
  put(out, kResponseMagic);
  put(out, kWireVersion);
  put(out, response.id);
  put(out, static_cast<std::uint8_t>(response.status));
  put<std::uint8_t>(out, response.cache_hit ? 1 : 0);
  put(out, response.cache_key);
  put(out, response.triangles);
  put(out, response.vertices);
  put(out, response.mesh_wall_ms);
  put(out, response.queue_ms);
  put_string(out, response.error);
  put<std::uint64_t>(out, response.mesh_blob.size());
  put_bytes(out, response.mesh_blob.data(), response.mesh_blob.size());
  seal(out);
  return out;
}

bool decode_response(const std::uint8_t* data, std::size_t n,
                     MeshResponse* out) {
  Reader r(nullptr, 0);
  if (!unseal(data, n, &r)) return false;
  std::uint32_t magic = 0, version = 0;
  if (!r.get(&magic) || magic != kResponseMagic) return false;
  if (!r.get(&version) || version != kWireVersion) return false;
  MeshResponse resp;
  std::uint8_t status = 0, hit = 0;
  if (!r.get(&resp.id) || !r.get(&status) || !r.get(&hit) ||
      !r.get(&resp.cache_key) || !r.get(&resp.triangles) ||
      !r.get(&resp.vertices) || !r.get(&resp.mesh_wall_ms) ||
      !r.get(&resp.queue_ms) || !r.get_string(&resp.error)) {
    return false;
  }
  if (status > static_cast<std::uint8_t>(ServiceStatus::kShutdown)) {
    return false;
  }
  resp.status = static_cast<ServiceStatus>(status);
  resp.cache_hit = hit != 0;
  std::uint64_t blob_len = 0;
  if (!r.get(&blob_len) || blob_len > kMaxMeshBytes ||
      r.remaining() != blob_len) {
    return false;
  }
  resp.mesh_blob.resize(static_cast<std::size_t>(blob_len));
  if (!r.get_bytes(resp.mesh_blob.data(), resp.mesh_blob.size())) {
    return false;
  }
  *out = std::move(resp);
  return true;
}

bool decode_response(const std::vector<std::uint8_t>& bytes,
                     MeshResponse* out) {
  return decode_response(bytes.data(), bytes.size(), out);
}

}  // namespace aero
