#include "runtime/rma.hpp"

#include <cstring>

namespace aero {

namespace {

constexpr std::uint8_t kKindInline = 0x00;
constexpr std::uint8_t kKindWindow = 0x01;

/// splitmix64 finalizer (same mixer the fault injector uses; redeclared here
/// because both live in anonymous namespaces of their translation units).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename T>
void store(std::uint8_t* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

void seal_inline_frame(std::uint64_t nonce,
                       std::vector<std::uint8_t>& framed) {
  framed[0] = kKindInline;
  store(framed.data() + 1, nonce);
  store(framed.data() + 9, crc32(framed.data(), 9));
}

ByteBuf make_window_frame(std::uint64_t nonce, int src, std::uint32_t slot,
                          std::uint64_t length, std::uint64_t digest) {
  std::uint8_t b[kWindowFrameSize];
  b[0] = kKindWindow;
  store(b + 1, nonce);
  store(b + 9, static_cast<std::int32_t>(src));
  store(b + 13, slot);
  store(b + 17, length);
  store(b + 25, digest);
  store(b + 33, crc32(b, 33));
  return ByteBuf(b, kWindowFrameSize);
}

std::optional<ParsedFrame> parse_frame(const ByteBuf& payload) {
  if (payload.size() < kInlineFrameHeader) return std::nullopt;
  const std::uint8_t* p = payload.data();
  ParsedFrame f;
  if (p[0] == kKindInline) {
    if (load<std::uint32_t>(p + 9) != crc32(p, 9)) return std::nullopt;
    f.nonce = load<std::uint64_t>(p + 1);
    f.windowed = false;
    f.data = p + kInlineFrameHeader;
    f.size = payload.size() - kInlineFrameHeader;
    return f;
  }
  if (p[0] == kKindWindow) {
    if (payload.size() != kWindowFrameSize) return std::nullopt;
    if (load<std::uint32_t>(p + 33) != crc32(p, 33)) return std::nullopt;
    f.nonce = load<std::uint64_t>(p + 1);
    f.windowed = true;
    f.src = load<std::int32_t>(p + 9);
    f.slot = load<std::uint32_t>(p + 13);
    f.length = load<std::uint64_t>(p + 17);
    f.digest = load<std::uint64_t>(p + 25);
    return f;
  }
  return std::nullopt;  // unknown kind byte (corruption)
}

ByteBuf make_ack(std::uint64_t nonce) {
  std::uint8_t b[12];
  store(b, nonce);
  store(b + 8, crc32(b, 8));
  return ByteBuf(b, sizeof(b));
}

std::optional<std::uint64_t> parse_ack(const ByteBuf& b) {
  if (b.size() != 12) return std::nullopt;
  if (load<std::uint32_t>(b.data() + 8) != crc32(b.data(), 8)) {
    return std::nullopt;
  }
  return load<std::uint64_t>(b.data());
}

std::uint64_t payload_digest(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = mix64(0x6165726f'726d61ull ^ n);
  if (n > 0) {
    const std::size_t step = n / 16 + 1;
    for (std::size_t i = 0; i < n; i += step) {
      h = mix64(h ^ (static_cast<std::uint64_t>(data[i]) + (i << 8)));
    }
  }
  return h;
}

std::uint32_t PayloadWindow::publish(std::uint64_t nonce,
                                     std::vector<std::uint8_t> bytes) {
  published_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(m_);
  const std::uint32_t slot = next_slot_++;
  slots_.emplace(slot, Slot{nonce, std::move(bytes), false});
  return slot;
}

std::optional<std::vector<std::uint8_t>> PayloadWindow::take(
    std::uint32_t slot, std::uint64_t nonce) {
  MutexLock lock(m_);
  auto it = slots_.find(slot);
  if (it == slots_.end() || it->second.taken || it->second.nonce != nonce) {
    return std::nullopt;
  }
  it->second.taken = true;
  taken_.fetch_add(1, std::memory_order_relaxed);
  return std::move(it->second.bytes);
}

std::optional<std::vector<std::uint8_t>> PayloadWindow::take(
    std::uint32_t slot, std::uint64_t nonce, std::uint64_t length,
    std::uint64_t digest) {
  MutexLock lock(m_);
  auto it = slots_.find(slot);
  if (it == slots_.end() || it->second.taken || it->second.nonce != nonce) {
    return std::nullopt;
  }
  const std::vector<std::uint8_t>& b = it->second.bytes;
  if (b.size() != length || payload_digest(b.data(), b.size()) != digest) {
    return std::nullopt;  // slot stays live for an intact resend
  }
  it->second.taken = true;
  taken_.fetch_add(1, std::memory_order_relaxed);
  return std::move(it->second.bytes);
}

void PayloadWindow::release(std::uint32_t slot, std::uint64_t nonce) {
  std::vector<std::uint8_t> recycled;
  {
    MutexLock lock(m_);
    auto it = slots_.find(slot);
    if (it == slots_.end() || it->second.nonce != nonce) return;
    if (!it->second.taken) recycled = std::move(it->second.bytes);
    slots_.erase(it);
  }
  if (recycle_ != nullptr && !recycled.empty()) {
    recycle_->release(std::move(recycled));
  }
}

std::optional<std::vector<std::uint8_t>> PayloadWindow::reclaim(
    std::uint32_t slot, std::uint64_t nonce) {
  MutexLock lock(m_);
  auto it = slots_.find(slot);
  if (it == slots_.end() || it->second.nonce != nonce) return std::nullopt;
  const bool taken = it->second.taken;
  std::vector<std::uint8_t> bytes = std::move(it->second.bytes);
  slots_.erase(it);
  if (taken) return std::nullopt;
  return bytes;
}

std::size_t PayloadWindow::live() const {
  MutexLock lock(m_);
  return slots_.size();
}

}  // namespace aero
