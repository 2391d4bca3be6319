// Hostile graph streams (docs/comm.md, "Wire format" and "Validation"):
// every malformed or ill-typed stream a bundle can author must fail closed
// in the receiving isolate. Each case checks that decoding raises a typed
// guest exception without crashing the host, that a length the stream
// cannot back allocates nothing, that every other isolate's ResourceStats
// stay bit-identical, and that a collection afterwards finds a consistent
// heap. A fixed-budget deterministic loop then feeds every prefix and every
// single-bit flip of seeded round-trip streams through the decoder.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "bytecode/builder.h"
#include "comm/serializer.h"
#include "heap/object.h"
#include "stdlib/system_library.h"
#include "support/rng.h"

namespace ijvm {
namespace {

// Node and field-value tags, as documented in docs/comm.md.
constexpr u8 kNull = 0, kBack = 1, kStr = 2, kInts = 3, kLongs = 4, kDoubles = 5,
             kRefs = 6, kObj = 7, kInt = 8, kLong = 9, kDouble = 10;
constexpr size_t kHeaderBytes = 16;

constexpr const char* kIae = "java/lang/IllegalArgumentException";
constexpr const char* kNoClass = "java/lang/NoClassDefFoundError";

// A hand-built stream body.
struct Body {
  std::string bytes;
  Body& tag(u8 t) {
    bytes.push_back(static_cast<char>(t));
    return *this;
  }
  Body& varint(u64 v) {
    while (v >= 0x80) {
      bytes.push_back(static_cast<char>(v | 0x80));
      v >>= 7;
    }
    bytes.push_back(static_cast<char>(v));
    return *this;
  }
  Body& zigzag(i64 v) {
    return varint((static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63));
  }
  // Class ref `index`, defining it as `name` (index must be the next free
  // table entry).
  Body& newClass(u64 index, const std::string& name) {
    varint(index).varint(name.size());
    bytes += name;
    return *this;
  }
  Body& raw(const void* p, size_t n) {
    bytes.append(static_cast<const char*>(p), n);
    return *this;
  }
  // The first three api/Holder fields: n:I, wide:J, x:D.
  Body& holderPrims(i32 n) {
    const double x = 1.5;
    return tag(kInt).zigzag(n).tag(kLong).zigzag(-2).tag(kDouble).raw(&x, sizeof(x));
  }
  std::string sealed() const { return sealGraphStream(bytes); }
};

// Every ResourceStats counter, in declaration order.
std::vector<i64> snapshot(const ResourceStats& s) {
  return {static_cast<i64>(s.objects_allocated.load()),
          static_cast<i64>(s.bytes_allocated.load()),
          static_cast<i64>(s.bytes_since_gc.load()),
          static_cast<i64>(s.bytes_charged.load()),
          static_cast<i64>(s.objects_charged.load()),
          static_cast<i64>(s.connections_charged.load()),
          static_cast<i64>(s.bytes_donated_in.load()),
          static_cast<i64>(s.bytes_donated_out.load()),
          static_cast<i64>(s.objects_donated_in.load()),
          static_cast<i64>(s.objects_donated_out.load()),
          s.donated_bytes_delta.load(),
          static_cast<i64>(s.threads_created.load()),
          s.live_threads.load(),
          static_cast<i64>(s.connections_opened.load()),
          static_cast<i64>(s.io_bytes_read.load()),
          static_cast<i64>(s.io_bytes_written.load()),
          static_cast<i64>(s.gc_activations.load()),
          static_cast<i64>(s.cpu_samples.load()),
          static_cast<i64>(s.cpu_profile_samples.load()),
          s.sleeping_threads.load(),
          static_cast<i64>(s.calls_in.load()),
          static_cast<i64>(s.method_invocations.load()),
          static_cast<i64>(s.loop_back_edges.load()),
          static_cast<i64>(s.jit_methods_compiled.load()),
          static_cast<i64>(s.jit_methods_demoted.load()),
          s.jit_code_bytes.load(),
          static_cast<i64>(s.osr_refused_transfers.load()),
          static_cast<i64>(s.jit_recompile_requests.load()),
          static_cast<i64>(s.jit_payoff_demotions.load())};
}

class HostileStreams : public ::testing::Test {
 protected:
  void SetUp() override {
    VmOptions o;
    // No sampler ticks touching any isolate's counters, and collections
    // only where the tests run them.
    o.profile_hz = 0;
    o.sampler_period_us = 0;
    o.gc_threshold = 256u << 20;
    vm = std::make_unique<VM>(o);
    installSystemLibrary(*vm);
    vm->createIsolate(vm->registry().newLoader("platform"), "platform");
    bystander = vm->createIsolate(vm->registry().newLoader("bystander"), "bystander");
    recv_loader = vm->registry().newLoader("receiver");
    receiver = vm->createIsolate(recv_loader, "receiver");
    recv_t = vm->attachThread("recv", receiver);

    {
      ClassBuilder cb("api/Rec");
      cb.field("a", "I");
      cb.field("b", "I");
      rec_cls = recv_loader->define(cb.build());
    }
    {
      ClassBuilder cb("api/Holder");
      cb.field("n", "I");
      cb.field("wide", "J");
      cb.field("x", "D");
      cb.field("rec", "Lapi/Rec;");
      cb.field("recs", "[Lapi/Rec;");
      cb.field("ints", "[I");
      cb.field("label", "Ljava/lang/String;");
      cb.field("next", "Lapi/Holder;");
      holder_cls = recv_loader->define(cb.build());
    }
    {
      ClassBuilder cb("api/Shape", "", ACC_PUBLIC | ACC_INTERFACE);
      recv_loader->define(cb.build());
    }

    // The bystander owns live state of its own.
    JThread* bt = vm->attachThread("bystander", bystander);
    {
      LocalRootScope roots(bt);
      Object* arr = roots.add(vm->allocArrayObject(bt, vm->registry().arrayClass("[I"), 64));
      ASSERT_NE(arr, nullptr);
      kept = vm->addGlobalRef(arr, bystander);
      Object* s = vm->newStringObject(bt, "bystander state");
      ASSERT_NE(s, nullptr);
      kept_str = vm->addGlobalRef(s, bystander);
    }
    vm->detachThread(bt);

    vm->collectGarbage(vm->mainThread(), nullptr);
    others_baseline = othersSnapshot();
    recv_charged = receiver->stats.bytes_charged.load();
  }

  void TearDown() override {
    vm->removeGlobalRef(kept);
    vm->removeGlobalRef(kept_str);
    vm->detachThread(recv_t);
    vm.reset();
  }

  std::vector<std::vector<i64>> othersSnapshot() {
    std::vector<std::vector<i64>> out;
    for (Isolate* iso : vm->isolates()) {
      if (iso != receiver) out.push_back(snapshot(iso->stats));
    }
    return out;
  }

  // Decodes `stream` in the receiver and expects a typed rejection that
  // left every other isolate untouched. Returns the exception message.
  std::string expectRejected(const std::string& stream, const char* exception = kIae) {
    Object* got = deserializeGraph(*vm, recv_t, stream);
    EXPECT_EQ(got, nullptr);
    Object* exc = recv_t->pending_exception;
    const std::string msg = vm->pendingMessage(recv_t);
    EXPECT_NE(exc, nullptr);
    if (exc != nullptr) {
      EXPECT_EQ(exc->cls->name, exception) << msg;
    }
    vm->clearPending(recv_t);
    EXPECT_EQ(othersSnapshot(), others_baseline) << msg;
    return msg;
  }

  // Decodes a stream that may or may not be well formed: either a graph
  // with nothing pending, or a typed rejection. Other isolates stay
  // untouched either way.
  void decodeAny(const std::string& stream) {
    Object* got = deserializeGraph(*vm, recv_t, stream);
    if (Object* exc = recv_t->pending_exception) {
      EXPECT_EQ(got, nullptr);
      const std::string& cls = exc->cls->name;
      EXPECT_TRUE(cls == kIae || cls == kNoClass) << vm->pendingMessage(recv_t);
      vm->clearPending(recv_t);
    }
    EXPECT_EQ(othersSnapshot(), others_baseline);
  }

  // Collects and checks the heap: no reference leads to a freed object,
  // every field of every object the receiver built holds its declared
  // kind, no decoded object survives, and the other isolates' counters
  // match their pre-test values.
  void expectCleanHeap() {
    vm->collectGarbage(vm->mainThread(), nullptr);
    std::unordered_set<Object*> live;
    vm->heap().forEachObject([&](Object* o) { live.insert(o); });
    size_t dangling = 0;
    size_t mistyped = 0;
    vm->heap().forEachObject([&](Object* o) {
      o->traceRefs([&](Object* c) {
        if (live.count(c) == 0) ++dangling;
      });
      if (o->kind != ObjKind::Plain || o->creator_isolate != receiver->id) return;
      for (JClass* c = o->cls; c != nullptr; c = c->super) {
        for (const JField& f : c->fields) {
          if (!f.isStatic() && o->fields()[f.slot].kind != f.type.kind) ++mistyped;
        }
      }
    });
    EXPECT_EQ(dangling, 0u);
    EXPECT_EQ(mistyped, 0u);
    EXPECT_EQ(receiver->stats.bytes_charged.load(), recv_charged);
    EXPECT_EQ(othersSnapshot(), others_baseline);
  }

  // A seeded api/Holder graph with shared nodes, cycles, records, int
  // arrays and strings holding NUL and multi-byte UTF-8.
  Object* randomGraph(Rng& rng, LocalRootScope& roots) {
    JClass* ints_cls = vm->registry().arrayClass("[I");
    JClass* recs_cls = vm->registry().resolve(recv_loader, "[Lapi/Rec;");
    const int n = 2 + static_cast<int>(rng.nextBounded(3));
    std::vector<Object*> holders;
    for (int i = 0; i < n; ++i) {
      Object* h = roots.add(vm->allocObject(recv_t, holder_cls));
      holders.push_back(h);
      h->fields()[slot("n")] = Value::ofInt(rng.nextInt());
      h->fields()[slot("wide")] = Value::ofLong(static_cast<i64>(rng.next()));
      h->fields()[slot("x")] = Value::ofDouble(static_cast<double>(rng.nextInt()) / 7.0);
      std::string label("k\0\xc3\xa9", 4);
      label += static_cast<char>('a' + i);
      h->fields()[slot("label")] = Value::ofRef(roots.add(vm->newStringObject(recv_t, label)));
      const i32 len = static_cast<i32>(rng.nextBounded(4));
      Object* ints = roots.add(vm->allocArrayObject(recv_t, ints_cls, len));
      for (i32 k = 0; k < len; ++k) ints->intElems()[k] = rng.nextInt();
      h->fields()[slot("ints")] = Value::ofRef(ints);
      Object* recs = roots.add(vm->allocArrayObject(recv_t, recs_cls, 2));
      Object* rec = roots.add(vm->allocObject(recv_t, rec_cls));
      rec->fields()[rec_cls->findField("a")->slot] = Value::ofInt(rng.nextInt());
      recs->refElems()[0] = rec;
      h->fields()[slot("recs")] = Value::ofRef(recs);
      h->fields()[slot("rec")] = Value::ofRef(rec);  // shared with recs[0]
    }
    for (Object* h : holders) {
      h->fields()[slot("next")] = Value::ofRef(holders[rng.nextBounded(holders.size())]);
    }
    return holders[0];
  }

  i32 slot(const char* field) { return holder_cls->findField(field)->slot; }

  std::unique_ptr<VM> vm;
  ClassLoader* recv_loader = nullptr;
  Isolate* bystander = nullptr;
  Isolate* receiver = nullptr;
  JThread* recv_t = nullptr;
  JClass* rec_cls = nullptr;
  JClass* holder_cls = nullptr;
  GlobalRef* kept = nullptr;
  GlobalRef* kept_str = nullptr;
  std::vector<std::vector<i64>> others_baseline;
  u64 recv_charged = 0;
};

TEST_F(HostileStreams, LongIntoReferenceFieldIsRejected) {
  // The classic pointer forgery: a J value where api/Holder.rec expects a
  // reference.
  Body b;
  b.tag(kObj).newClass(0, "api/Holder").varint(8).holderPrims(1);
  b.tag(kLong).zigzag(0x7fff12345678);
  const std::string msg = expectRejected(b.sealed());
  EXPECT_NE(msg.find("api/Holder.rec"), std::string::npos) << msg;
  // And the other way round: a node where an int is declared.
  Body c;
  c.tag(kObj).newClass(0, "api/Holder").varint(8).tag(kNull);
  expectRejected(c.sealed());
  expectCleanHeap();
}

TEST_F(HostileStreams, IntArrayIntoRecFieldIsRejectedBeforeAllocating) {
  Body b;
  b.tag(kObj).newClass(0, "api/Holder").varint(8).holderPrims(1);
  const i32 two[2] = {1, 2};
  b.tag(kInts).varint(2).raw(two, sizeof(two));
  const u64 objects = receiver->stats.objects_allocated.load();
  const std::string msg = expectRejected(b.sealed());
  EXPECT_NE(msg.find("[I is not assignable to api/Rec"), std::string::npos) << msg;
  // Only the holder was allocated, not the int[].
  EXPECT_EQ(receiver->stats.objects_allocated.load(), objects + 1);
  expectCleanHeap();
}

TEST_F(HostileStreams, StringElementInRecArrayIsRejected) {
  Body b;
  b.tag(kRefs).newClass(0, "[Lapi/Rec;").varint(2);
  b.tag(kObj).newClass(1, "api/Rec").varint(2).tag(kInt).zigzag(1).tag(kInt).zigzag(2);
  b.tag(kStr).varint(3).raw("abc", 3);
  const std::string msg = expectRejected(b.sealed());
  EXPECT_NE(msg.find("java/lang/String is not assignable to api/Rec"), std::string::npos)
      << msg;
  // A back-reference to the wrong kind is caught the same way.
  Body c;
  c.tag(kRefs).newClass(0, "[Lapi/Rec;").varint(2).tag(kBack).varint(0).tag(kNull);
  expectRejected(c.sealed());
  expectCleanHeap();
}

TEST_F(HostileStreams, LengthsBeyondTheStreamAllocateNothing) {
  const u64 bytes = receiver->stats.bytes_allocated.load();
  const u64 objects = receiver->stats.objects_allocated.load();
  const u8 pad[8] = {};
  for (u64 len : {u64{1} << 30, u64{1} << 28, u64{9}, ~u64{0} >> 1}) {
    for (u8 tag : {kStr, kInts, kLongs, kDoubles}) {
      Body b;
      b.tag(tag).varint(len).raw(pad, sizeof(pad));
      const std::string msg = expectRejected(b.sealed());
      EXPECT_NE(msg.find("exceeds"), std::string::npos) << msg;
    }
    Body refs;
    refs.tag(kRefs).newClass(0, "[Ljava/lang/Object;").varint(len).tag(kNull);
    expectRejected(refs.sealed());
    Body name;
    name.tag(kObj).varint(0).varint(len).raw("api/Rec", 7);
    expectRejected(name.sealed());
  }
  EXPECT_EQ(receiver->stats.bytes_allocated.load(), bytes);
  EXPECT_EQ(receiver->stats.objects_allocated.load(), objects);
  expectCleanHeap();
}

TEST_F(HostileStreams, BackReferenceToUnseenIdIsRejected) {
  Body root;
  root.tag(kBack).varint(0);
  const std::string msg = expectRejected(root.sealed());
  EXPECT_NE(msg.find("unseen id"), std::string::npos) << msg;

  auto holderWithNext = [](u64 id) {
    Body b;
    b.tag(kObj).newClass(0, "api/Holder").varint(8).holderPrims(1);
    for (int f = 0; f < 4; ++f) b.tag(kNull);
    return b.tag(kBack).varint(id).sealed();
  };
  expectRejected(holderWithNext(1));
  // The same stream pointing at the holder itself is a legal cycle.
  Object* cyc = deserializeGraph(*vm, recv_t, holderWithNext(0));
  ASSERT_EQ(recv_t->pending_exception, nullptr) << vm->pendingMessage(recv_t);
  ASSERT_NE(cyc, nullptr);
  EXPECT_EQ(cyc->fields()[slot("next")].asRef(), cyc);
  expectCleanHeap();
}

TEST_F(HostileStreams, UnknownTagsAreRejected) {
  Body root;
  root.tag(0x7f);
  std::string msg = expectRejected(root.sealed());
  EXPECT_NE(msg.find("unknown stream tag"), std::string::npos) << msg;
  Body in_field;
  in_field.tag(kObj).newClass(0, "api/Holder").varint(8).tag(0x42);
  msg = expectRejected(in_field.sealed());
  EXPECT_NE(msg.find("unknown stream tag"), std::string::npos) << msg;
  Body in_array;
  in_array.tag(kRefs).newClass(0, "[Ljava/lang/Object;").varint(1).tag(0xff);
  expectRejected(in_array.sealed());
  Body prim_root;
  prim_root.tag(kInt).zigzag(5);
  expectRejected(prim_root.sealed());
  expectCleanHeap();
}

TEST_F(HostileStreams, MalformedHeadersClassesAndValuesAreRejected) {
  // Header: magic, length and checksum.
  Body null_root;
  null_root.tag(kNull);
  std::string ok = null_root.sealed();
  expectRejected("");
  expectRejected(ok.substr(0, kHeaderBytes - 1));
  std::string bad_magic = ok;
  bad_magic[0] = 'X';
  expectRejected(bad_magic);
  expectRejected(ok + std::string(1, '\0'));
  // Trailing bytes after a complete graph, and a truncated varint.
  Body trailing;
  trailing.tag(kNull).tag(kNull);
  expectRejected(trailing.sealed());
  Body cut;
  cut.tag(kStr).tag(0x80);
  expectRejected(cut.sealed());
  Body overlong;
  overlong.tag(kStr);
  for (int i = 0; i < 11; ++i) overlong.tag(0xff);
  expectRejected(overlong.sealed());
  // An int field value that does not fit in 32 bits.
  Body wide_int;
  wide_int.tag(kObj).newClass(0, "api/Rec").varint(2).tag(kInt).varint(u64{1} << 33);
  expectRejected(wide_int.sealed());

  // Classes: unknown, malformed, past the table, wrong field count, and
  // classes that cannot be instantiated from a stream.
  for (const std::string& name :
       {std::string("no/Such"), std::string(""), std::string("[Lapi/Rec"),
        std::string("[L;"), std::string("[Q"), std::string("[L[I;"),
        std::string("[[Lapi/Rec;"), std::string(300, '[') + "I"}) {
    Body b;
    b.tag(kRefs).newClass(0, name).varint(0);
    expectRejected(b.sealed(), kNoClass);
  }
  Body past;
  past.tag(kObj).varint(3);
  expectRejected(past.sealed());
  Body count;
  count.tag(kObj).newClass(0, "api/Rec").varint(3);
  expectRejected(count.sealed());
  for (const char* name : {"java/lang/String", "api/Shape", "[I"}) {
    Body b;
    b.tag(kObj).newClass(0, name).varint(0);
    const std::string msg = expectRejected(b.sealed());
    EXPECT_NE(msg.find("cannot be instantiated"), std::string::npos) << msg;
  }
  Body prim_refs;
  prim_refs.tag(kRefs).newClass(0, "[I").varint(0);
  expectRejected(prim_refs.sealed());
  expectCleanHeap();
}

TEST_F(HostileStreams, HundredThousandLevelsFailClosedAndRoundTrip) {
  constexpr int kDepth = 100000;
  auto chain = [&](u8 bottom) {
    Body b;
    for (int d = 0; d < kDepth; ++d) {
      b.tag(kObj);
      if (d == 0) {
        b.newClass(0, "api/Holder");
      } else {
        b.varint(0);
      }
      b.varint(8).holderPrims(d);
      for (int f = 0; f < 4; ++f) b.tag(kNull);
    }
    return b.tag(bottom).sealed();
  };
  expectRejected(chain(0x7f));
  const std::string good = chain(kNull);
  {
    LocalRootScope roots(recv_t);
    Object* head = roots.add(deserializeGraph(*vm, recv_t, good));
    ASSERT_EQ(recv_t->pending_exception, nullptr) << vm->pendingMessage(recv_t);
    ASSERT_NE(head, nullptr);
    int depth = 0;
    for (Object* o = head; o != nullptr; o = o->fields()[slot("next")].asRef()) {
      EXPECT_EQ(o->fields()[slot("n")].asInt(), depth);
      ++depth;
    }
    EXPECT_EQ(depth, kDepth);
    EXPECT_EQ(serializeGraph(*vm, head), good);
  }
  expectCleanHeap();
}

TEST_F(HostileStreams, EveryPrefixAndBitFlipFailsClosed) {
  Rng rng(0x5EEDF00Dull);
  for (int seed = 0; seed < 3; ++seed) {
    std::string stream;
    {
      LocalRootScope roots(recv_t);
      stream = serializeGraph(*vm, randomGraph(rng, roots));
    }
    ASSERT_GT(stream.size(), kHeaderBytes);
    // Raw stream: the header or the checksum catches every strict prefix
    // and every single-bit flip.
    for (size_t n = 0; n < stream.size(); ++n) expectRejected(stream.substr(0, n));
    for (size_t bit = 0; bit < 8 * stream.size(); ++bit) {
      std::string flipped = stream;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      expectRejected(flipped);
    }
    // Resealed body: the same mutations reach the structural checks. A
    // mutation may still decode (a flipped value bit); a prefix may not.
    const std::string body = stream.substr(kHeaderBytes);
    for (size_t n = 0; n < body.size(); ++n) {
      expectRejected(sealGraphStream(std::string_view(body).substr(0, n)));
    }
    for (size_t bit = 0; bit < 8 * body.size(); ++bit) {
      std::string flipped = body;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      decodeAny(sealGraphStream(flipped));
    }
    // The unmutated stream still decodes to an identical graph.
    {
      LocalRootScope roots(recv_t);
      Object* back = roots.add(deserializeGraph(*vm, recv_t, stream));
      ASSERT_EQ(recv_t->pending_exception, nullptr) << vm->pendingMessage(recv_t);
      EXPECT_EQ(serializeGraph(*vm, back), stream);
    }
    expectCleanHeap();
  }
}

}  // namespace
}  // namespace ijvm
