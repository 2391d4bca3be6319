// In-memory byte channels: the transport substrate for guest I/O
// (FileDescriptor/Socket equivalents) and for the RMI-style communication
// baseline of Table 1.
//
// The paper's I/O accounting (section 3.2, following JRes) instruments the
// few classes that read/write connections; here those are the natives of
// java/io/Connection, which charge bytes to the current isolate.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/common.h"

namespace ijvm {

// One direction of a duplex pipe: a contiguous buffer with a read offset,
// so a read of any size is one memcpy.
class ByteQueue {
 public:
  void push(const u8* data, size_t n);
  // Vectored push: appends every part under ONE lock acquisition and one
  // wakeup -- the per-message lock/notify cost amortizes across the batch
  // (docs/comm.md, "Batched sends"). Readers cannot observe a partial
  // batch boundary they could not also observe with per-part pushes.
  void pushv(const std::string* parts, size_t count);
  // Blocking read of up to n bytes; returns 0 on closed-and-empty, or
  // SIZE_MAX when cancelled. `cancel` may be null.
  size_t pop(u8* out, size_t n, const std::atomic<bool>* cancel);
  // As pop, appending the bytes to *out.
  size_t pop(std::string* out, size_t n, const std::atomic<bool>* cancel);
  void close();
  size_t size() const;

 private:
  // Waits for bytes and hands `copy` (pointer, count) up to n of them under
  // the lock; same returns as pop.
  template <class Copy>
  size_t popWith(size_t n, const std::atomic<bool>* cancel, Copy copy);
  void append(const u8* data, size_t n);  // caller holds m_

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<u8> bytes_;  // unread bytes are [head_, size())
  size_t head_ = 0;
  bool closed_ = false;
};

// A duplex endpoint. Created in cross-connected pairs (like socketpair) or
// as a loopback (writes readable from the same endpoint).
class ByteChannel {
 public:
  static std::pair<std::shared_ptr<ByteChannel>, std::shared_ptr<ByteChannel>> pair();
  static std::shared_ptr<ByteChannel> loopback();

  size_t write(const u8* data, size_t n);
  size_t write(const std::string& s) {
    return write(reinterpret_cast<const u8*>(s.data()), s.size());
  }
  // Vectored send of `count` framed messages in one queue push (one lock,
  // one wakeup, one trace event). Returns the total bytes written.
  size_t writev(const std::string* parts, size_t count);
  // Blocking; semantics as ByteQueue::pop.
  size_t read(u8* out, size_t n, const std::atomic<bool>* cancel = nullptr);
  // Reads exactly n bytes or fails (closed/cancelled).
  bool readFully(std::string* out, size_t n, const std::atomic<bool>* cancel = nullptr);
  void close();
  size_t pendingBytes() const { return in_->size(); }

 private:
  ByteChannel(std::shared_ptr<ByteQueue> in, std::shared_ptr<ByteQueue> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  std::shared_ptr<ByteQueue> in_;
  std::shared_ptr<ByteQueue> out_;
};

// Named rendezvous for channel pairs ("localhost ports").
class ChannelHub {
 public:
  // Connects to `name`: creates a pair, queues the server end for accept().
  std::shared_ptr<ByteChannel> connect(const std::string& name);
  // Blocking accept of the next queued connection to `name`; nullptr when
  // cancelled.
  std::shared_ptr<ByteChannel> accept(const std::string& name,
                                      const std::atomic<bool>* cancel = nullptr);

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::unordered_map<std::string, std::deque<std::shared_ptr<ByteChannel>>> pending_;
};

}  // namespace ijvm
