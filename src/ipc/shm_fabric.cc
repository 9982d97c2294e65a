#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"
#include "ipc/fabric.h"

namespace heron {
namespace ipc {

ShmRingFabric::~ShmRingFabric() {
  StopPump();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [_, ring] : links_) {
    if (ring->base != nullptr) ::munmap(ring->base, ring->capacity);
  }
  links_.clear();
}

Status ShmRingFabric::OpenLink(uint64_t key, FrameSink sink) {
  if (sink == nullptr) return Status::InvalidArgument("null frame sink");
  std::lock_guard<std::mutex> lock(mutex_);
  if (links_.count(key) != 0) {
    return Status::AlreadyExists(
        StrFormat("fabric link %llu already open",
                  static_cast<unsigned long long>(key)));
  }
  const size_t capacity = options_.link_capacity_bytes > 0
                              ? options_.link_capacity_bytes
                              : (1u << 20);
  // MAP_SHARED models the cross-process page mapping a multi-process
  // deployment would use (over memfd/shm_open); MAP_ANONYMOUS keeps the
  // single-host single-process case file-free.
  void* base = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap of shm ring failed");
  }
  auto ring = std::make_unique<Ring>();
  ring->base = static_cast<char*>(base);
  ring->capacity = capacity;
  ring->sink = std::move(sink);
  links_.emplace(key, std::move(ring));
  return Status::OK();
}

Status ShmRingFabric::CloseLink(uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(key);
  if (it == links_.end()) return Status::NotFound("fabric link not open");
  // Graceful close drains deliverable frames; a stalled sink drops the
  // rest (the loss a dying channel takes anyway).
  PumpRingLocked(it->second.get());
  ::munmap(it->second->base, it->second->capacity);
  it->second->base = nullptr;
  links_.erase(it);
  return Status::OK();
}

void ShmRingFabric::WriteWrapped(Ring* ring, uint64_t at, const char* src,
                                 size_t len) {
  const size_t off = static_cast<size_t>(at % ring->capacity);
  const size_t first = std::min(len, ring->capacity - off);
  std::memcpy(ring->base + off, src, first);
  if (first < len) std::memcpy(ring->base, src + first, len - first);
}

void ShmRingFabric::ReadWrapped(const Ring* ring, uint64_t at, char* dst,
                                size_t len) {
  const size_t off = static_cast<size_t>(at % ring->capacity);
  const size_t first = std::min(len, ring->capacity - off);
  std::memcpy(dst, ring->base + off, first);
  if (first < len) std::memcpy(dst + first, ring->base, len - first);
}

Status ShmRingFabric::SendFrame(uint64_t key, const serde::FrameHeader& header,
                                serde::Buffer* payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(key);
  if (it == links_.end()) return Status::NotFound("fabric link not open");
  Ring* ring = it->second.get();

  const size_t frame_bytes = serde::kFrameHeaderBytes + payload->size();
  if (frame_bytes > ring->capacity) {
    return Status::InvalidArgument("frame larger than shm ring");
  }
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  const uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head - tail + frame_bytes > ring->capacity) {
    // Ring full: the shm fabric's backpressure. Sender parks and retries.
    return Status::ResourceExhausted("shm ring full");
  }

  char wire_header[serde::kFrameHeaderBytes];
  serde::EncodeFrameHeader(header, wire_header);
  WriteWrapped(ring, head, wire_header, serde::kFrameHeaderBytes);
  WriteWrapped(ring, head + serde::kFrameHeaderBytes, payload->data(),
               payload->size());
  // Release: the pump's acquire load of head sees the frame bytes.
  ring->head.store(head + frame_bytes, std::memory_order_release);

  ++stats_.frames_sent;
  ++ring->in_flight;
  stats_.bytes_on_wire += frame_bytes;
  return Status::OK();
}

void ShmRingFabric::PumpRingLocked(Ring* ring) {
  while (true) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    if (head - tail < serde::kFrameHeaderBytes) return;

    char wire_header[serde::kFrameHeaderBytes];
    ReadWrapped(ring, tail, wire_header, serde::kFrameHeaderBytes);
    serde::FrameHeader header;
    if (!serde::DecodeFrameHeader(
             serde::BytesView(wire_header, serde::kFrameHeaderBytes),
             &header)
             .ok()) {
      HLOG(ERROR) << "shm ring desync; discarding ring contents";
      ring->tail.store(head, std::memory_order_release);
      return;
    }
    const size_t frame_bytes = serde::kFrameHeaderBytes + header.payload_len;
    if (head - tail < frame_bytes) return;  // Payload not fully written.

    serde::Buffer payload = AcquireBuffer();
    payload.resize(header.payload_len);
    ReadWrapped(ring, tail + serde::kFrameHeaderBytes, payload.data(),
                header.payload_len);
    const Status st = ring->sink(header, std::move(payload));
    if (st.IsResourceExhausted()) {
      // Receiver full: leave the tail in place — the frame stays in the
      // ring (stall-in-place, no side copy) and blocks senders exactly as
      // a full downstream should.
      ++stats_.sink_stalls;
      return;
    }
    // Release: senders' acquire load of tail sees the freed space.
    ring->tail.store(tail + frame_bytes, std::memory_order_release);
    --ring->in_flight;
    if (st.ok()) ++stats_.frames_delivered;
  }
}

void ShmRingFabric::Pump() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [_, ring] : links_) PumpRingLocked(ring.get());
}

void ShmRingFabric::PumpLink(uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(key);
  if (it != links_.end()) PumpRingLocked(it->second.get());
}

size_t ShmRingFabric::InFlight(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(key);
  return it == links_.end() ? 0 : it->second->in_flight;
}

FabricStats ShmRingFabric::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace ipc
}  // namespace heron
