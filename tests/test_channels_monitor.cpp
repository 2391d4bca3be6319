// Units for the two lowest-level concurrency substrates: in-memory byte
// channels (the I/O + RMI transport) and object monitors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "heap/monitor.h"
#include "stdlib/channels.h"

namespace ijvm {
namespace {

TEST(ByteChannelTest, PairDeliversInBothDirections) {
  auto [a, b] = ByteChannel::pair();
  a->write("hello");
  std::string got;
  ASSERT_TRUE(b->readFully(&got, 5));
  EXPECT_EQ(got, "hello");
  b->write("world!");
  ASSERT_TRUE(a->readFully(&got, 6));
  EXPECT_EQ(got, "world!");
}

TEST(ByteChannelTest, LoopbackReadsOwnWrites) {
  auto ch = ByteChannel::loopback();
  ch->write("abc");
  EXPECT_EQ(ch->pendingBytes(), 3u);
  std::string got;
  ASSERT_TRUE(ch->readFully(&got, 3));
  EXPECT_EQ(got, "abc");
  EXPECT_EQ(ch->pendingBytes(), 0u);
}

TEST(ByteChannelTest, ReadBlocksUntilDataArrives) {
  auto [a, b] = ByteChannel::pair();
  std::string got;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->write("late");
  });
  ASSERT_TRUE(b->readFully(&got, 4));
  EXPECT_EQ(got, "late");
  writer.join();
}

TEST(ByteChannelTest, CancelFlagUnblocksReader) {
  auto [a, b] = ByteChannel::pair();
  std::atomic<bool> cancel{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.store(true);
  });
  u8 buf[4];
  EXPECT_EQ(b->read(buf, 4, &cancel), SIZE_MAX);
  canceller.join();
  (void)a;
}

TEST(ByteChannelTest, CloseEndsReads) {
  auto [a, b] = ByteChannel::pair();
  a->write("xy");
  a->close();
  std::string got;
  ASSERT_TRUE(b->readFully(&got, 2));  // buffered data still readable
  u8 buf[1];
  EXPECT_EQ(b->read(buf, 1), 0u);  // then EOF
}

TEST(ByteChannelTest, InterleavedWritesAndPartialReadsKeepOrder) {
  // Reads that stop mid-frame and writes that land behind a half-consumed
  // buffer must neither lose nor reorder bytes.
  auto [a, b] = ByteChannel::pair();
  std::string sent, got, part;
  for (int i = 0; i < 200; ++i) {
    const std::string frame(static_cast<size_t>(1 + i % 37), static_cast<char>('a' + i % 26));
    a->write(frame);
    sent += frame;
    const size_t want = std::min<size_t>(b->pendingBytes(), static_cast<size_t>(1 + i % 23));
    ASSERT_TRUE(b->readFully(&part, want));
    got += part;
  }
  ASSERT_TRUE(b->readFully(&part, b->pendingBytes()));
  got += part;
  EXPECT_EQ(got, sent);
  EXPECT_EQ(b->pendingBytes(), 0u);
}

TEST(ChannelHubTest, ConnectAcceptRendezvous) {
  ChannelHub hub;
  std::shared_ptr<ByteChannel> server;
  std::thread acceptor([&] { server = hub.accept("svc"); });
  auto client = hub.connect("svc");
  acceptor.join();
  ASSERT_NE(server, nullptr);
  client->write("ping");
  std::string got;
  ASSERT_TRUE(server->readFully(&got, 4));
  EXPECT_EQ(got, "ping");
}

TEST(ChannelHubTest, AcceptHonoursCancel) {
  ChannelHub hub;
  std::atomic<bool> cancel{true};
  EXPECT_EQ(hub.accept("nobody", &cancel), nullptr);
}

TEST(MonitorTest, TryEnterAndRecursion) {
  Monitor m;
  int self = 0;
  EXPECT_TRUE(m.tryEnter(&self));
  EXPECT_TRUE(m.tryEnter(&self));  // recursive
  int other = 0;
  EXPECT_FALSE(m.tryEnter(&other));
  EXPECT_TRUE(m.exit(&self));
  EXPECT_FALSE(m.tryEnter(&other));  // still held once
  EXPECT_TRUE(m.exit(&self));
  EXPECT_TRUE(m.tryEnter(&other));  // now free
  EXPECT_TRUE(m.exit(&other));
}

TEST(MonitorTest, ExitByNonOwnerFails) {
  Monitor m;
  int self = 0, other = 0;
  ASSERT_TRUE(m.tryEnter(&self));
  EXPECT_FALSE(m.exit(&other));
  EXPECT_TRUE(m.exit(&self));
}

TEST(MonitorTest, ContendedEnterWaitsForRelease) {
  Monitor m;
  int a = 0, b = 0;
  ASSERT_TRUE(m.tryEnter(&a));
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    m.enter(&b);
    acquired.store(true);
    m.exit(&b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load());
  m.exit(&a);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(MonitorTest, EnterCancelledByFlag) {
  Monitor m;
  int a = 0, b = 0;
  ASSERT_TRUE(m.tryEnter(&a));
  std::atomic<bool> cancel{false};
  std::atomic<bool> result{true};
  std::thread waiter([&] { result.store(m.enter(&b, &cancel)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cancel.store(true);
  waiter.join();
  EXPECT_FALSE(result.load());
  EXPECT_TRUE(m.exit(&a));
}

TEST(MonitorTest, WaitNotifyOne) {
  Monitor m;
  int waiter_id = 0, notifier_id = 0;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    ASSERT_TRUE(m.tryEnter(&waiter_id));
    Monitor::WaitResult r = m.wait(&waiter_id, 0, nullptr);
    EXPECT_EQ(r, Monitor::WaitResult::Notified);
    EXPECT_TRUE(m.ownedBy(&waiter_id));  // re-acquired
    m.exit(&waiter_id);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.enter(&notifier_id);
  m.notifyOne();
  m.exit(&notifier_id);
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(MonitorTest, TimedWaitTimesOut) {
  Monitor m;
  int self = 0;
  ASSERT_TRUE(m.tryEnter(&self));
  Monitor::WaitResult r = m.wait(&self, 20, nullptr);
  EXPECT_EQ(r, Monitor::WaitResult::TimedOut);
  EXPECT_TRUE(m.ownedBy(&self));
  m.exit(&self);
}

TEST(MonitorTest, WaitInterruptedByFlag) {
  Monitor m;
  int self = 0;
  std::atomic<bool> interrupted{false};
  ASSERT_TRUE(m.tryEnter(&self));
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    interrupted.store(true);
  });
  Monitor::WaitResult r = m.wait(&self, 0, &interrupted);
  EXPECT_EQ(r, Monitor::WaitResult::Interrupted);
  m.exit(&self);
  interrupter.join();
}

TEST(MonitorTest, NotifyAllWakesEveryWaiter) {
  Monitor m;
  constexpr int kWaiters = 4;
  std::atomic<int> woke{0};
  int ids[kWaiters];
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i] {
      m.enter(&ids[i]);
      if (m.wait(&ids[i], 0, nullptr) == Monitor::WaitResult::Notified) {
        woke.fetch_add(1);
      }
      m.exit(&ids[i]);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  int self = 0;
  m.enter(&self);
  m.notifyAll();
  m.exit(&self);
  for (auto& t : threads) t.join();
  EXPECT_EQ(woke.load(), kWaiters);
}

}  // namespace
}  // namespace ijvm
