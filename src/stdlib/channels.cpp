#include "stdlib/channels.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/trace.h"

namespace ijvm {

namespace {
constexpr auto kSlice = std::chrono::microseconds(500);
}

void ByteQueue::append(const u8* data, size_t n) {
  // Drop the consumed prefix once it is at least half the buffer, so the
  // buffer stays proportional to the unread bytes (amortized O(1) a byte).
  if (head_ > 0 && 2 * head_ >= bytes_.size()) {
    bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  bytes_.insert(bytes_.end(), data, data + n);
}

void ByteQueue::push(const u8* data, size_t n) {
  {
    std::lock_guard<std::mutex> lock(m_);
    append(data, n);
  }
  cv_.notify_all();
}

void ByteQueue::pushv(const std::string* parts, size_t count) {
  {
    std::lock_guard<std::mutex> lock(m_);
    for (size_t i = 0; i < count; ++i) {
      append(reinterpret_cast<const u8*>(parts[i].data()), parts[i].size());
    }
  }
  cv_.notify_all();
}

template <class Copy>
size_t ByteQueue::popWith(size_t n, const std::atomic<bool>* cancel, Copy copy) {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    if (head_ < bytes_.size()) {
      const size_t take = std::min(n, bytes_.size() - head_);
      copy(bytes_.data() + head_, take);
      head_ += take;
      if (head_ == bytes_.size()) {
        bytes_.clear();
        head_ = 0;
      }
      return take;
    }
    if (closed_) return 0;
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      return SIZE_MAX;
    }
    cv_.wait_for(lock, kSlice);
  }
}

size_t ByteQueue::pop(u8* out, size_t n, const std::atomic<bool>* cancel) {
  return popWith(n, cancel, [out](const u8* p, size_t k) { std::memcpy(out, p, k); });
}

size_t ByteQueue::pop(std::string* out, size_t n, const std::atomic<bool>* cancel) {
  return popWith(n, cancel, [out](const u8* p, size_t k) {
    out->append(reinterpret_cast<const char*>(p), k);
  });
}

void ByteQueue::close() {
  {
    std::lock_guard<std::mutex> lock(m_);
    closed_ = true;
  }
  cv_.notify_all();
}

size_t ByteQueue::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return bytes_.size() - head_;
}

std::pair<std::shared_ptr<ByteChannel>, std::shared_ptr<ByteChannel>>
ByteChannel::pair() {
  auto a_to_b = std::make_shared<ByteQueue>();
  auto b_to_a = std::make_shared<ByteQueue>();
  auto a = std::shared_ptr<ByteChannel>(new ByteChannel(b_to_a, a_to_b));
  auto b = std::shared_ptr<ByteChannel>(new ByteChannel(a_to_b, b_to_a));
  return {a, b};
}

std::shared_ptr<ByteChannel> ByteChannel::loopback() {
  auto q = std::make_shared<ByteQueue>();
  return std::shared_ptr<ByteChannel>(new ByteChannel(q, q));
}

size_t ByteChannel::write(const u8* data, size_t n) {
  // The send is a queue push (lock + copy + notify): time it as the
  // channel-send latency and record the bytes moved. Channels are a cold
  // path relative to the interpreter (syscall-like), so per-send clock
  // reads are affordable -- unlike the migrated-call path, which samples.
  if (obs::traceEnabled()) {
    const u64 t0 = obs::traceNowNs();
    out_->push(data, n);
    const u64 t1 = obs::traceNowNs();
    obs::emitAt(t1, obs::Ev::ChannelSend, obs::Ph::Instant, -1, n);
    obs::recordLatency(obs::Lat::ChannelSend, t1 - t0);
  } else {
    out_->push(data, n);
  }
  return n;
}

size_t ByteChannel::writev(const std::string* parts, size_t count) {
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) total += parts[i].size();
  if (count == 0) return 0;
  if (obs::traceEnabled()) {
    const u64 t0 = obs::traceNowNs();
    out_->pushv(parts, count);
    const u64 t1 = obs::traceNowNs();
    obs::emitAt(t1, obs::Ev::ChannelSendBatch, obs::Ph::Instant, -1, total,
                count);
    obs::recordLatency(obs::Lat::ChannelSend, t1 - t0);
  } else {
    out_->pushv(parts, count);
  }
  return total;
}

size_t ByteChannel::read(u8* out, size_t n, const std::atomic<bool>* cancel) {
  return in_->pop(out, n, cancel);
}

bool ByteChannel::readFully(std::string* out, size_t n,
                            const std::atomic<bool>* cancel) {
  out->clear();
  // Reserve what is already here, not `n`: a guest-chosen n must not size
  // a host allocation by itself.
  out->reserve(std::min(n, in_->size()));
  while (out->size() < n) {
    const size_t got = in_->pop(out, n - out->size(), cancel);
    if (got == 0 || got == SIZE_MAX) return false;
  }
  return true;
}

void ByteChannel::close() {
  in_->close();
  out_->close();
}

std::shared_ptr<ByteChannel> ChannelHub::connect(const std::string& name) {
  auto [client, server] = ByteChannel::pair();
  {
    std::lock_guard<std::mutex> lock(m_);
    pending_[name].push_back(server);
  }
  cv_.notify_all();
  return client;
}

std::shared_ptr<ByteChannel> ChannelHub::accept(const std::string& name,
                                                const std::atomic<bool>* cancel) {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    auto it = pending_.find(name);
    if (it != pending_.end() && !it->second.empty()) {
      auto ch = it->second.front();
      it->second.pop_front();
      return ch;
    }
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) return nullptr;
    cv_.wait_for(lock, kSlice);
  }
}

}  // namespace ijvm
