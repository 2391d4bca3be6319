// Communication models (Table 1 substrate): serializer round-trips, deep
// copy isolation, and the cost ordering local <= ijvm << incommunicado << rmi.
#include <gtest/gtest.h>

#include <climits>
#include <cstring>
#include <unordered_map>

#include "bytecode/builder.h"
#include "comm/comm.h"
#include "comm/serializer.h"
#include "heap/object.h"
#include "stdlib/system_library.h"
#include "workloads/bundles.h"

namespace ijvm {
namespace {

struct CommFixture : ::testing::Test {
  void boot() {
    vm = std::make_unique<VM>();
    installSystemLibrary(*vm);
    fw = std::make_unique<Framework>(*vm);
  }
  void TearDown() override {
    fw.reset();
    vm.reset();
  }
  std::unique_ptr<VM> vm;
  std::unique_ptr<Framework> fw;
};

TEST_F(CommFixture, SerializerRoundTripsObjectGraph) {
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Node");
    cb.field("value", "I");
    cb.field("weight", "D");
    cb.field("label", "Ljava/lang/String;");
    cb.field("next", "Lt/Node;");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* node_cls = shared->find("t/Node");

  LocalRootScope roots(t);
  Object* a = roots.add(vm->allocObject(t, node_cls));
  Object* b = roots.add(vm->allocObject(t, node_cls));
  Object* label = roots.add(vm->newStringObject(t, "hello graph"));
  JField* value_f = node_cls->findField("value");
  JField* weight_f = node_cls->findField("weight");
  JField* label_f = node_cls->findField("label");
  JField* next_f = node_cls->findField("next");
  a->fields()[value_f->slot] = Value::ofInt(7);
  a->fields()[weight_f->slot] = Value::ofDouble(2.5);
  a->fields()[label_f->slot] = Value::ofRef(label);
  a->fields()[next_f->slot] = Value::ofRef(b);
  b->fields()[value_f->slot] = Value::ofInt(9);
  b->fields()[next_f->slot] = Value::ofRef(a);  // cycle

  std::string bytes = serializeGraph(*vm, a);
  Object* copy = deserializeGraph(*vm, t, bytes);
  ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
  ASSERT_NE(copy, nullptr);
  EXPECT_NE(copy, a);
  EXPECT_EQ(copy->fields()[value_f->slot].asInt(), 7);
  EXPECT_DOUBLE_EQ(copy->fields()[weight_f->slot].asDouble(), 2.5);
  Object* copy_label = copy->fields()[label_f->slot].asRef();
  ASSERT_NE(copy_label, nullptr);
  EXPECT_EQ(VM::stringValue(copy_label), "hello graph");
  Object* copy_b = copy->fields()[next_f->slot].asRef();
  ASSERT_NE(copy_b, nullptr);
  EXPECT_EQ(copy_b->fields()[value_f->slot].asInt(), 9);
  // Cycle preserved through back-references.
  EXPECT_EQ(copy_b->fields()[next_f->slot].asRef(), copy);
}

// Structural equality of two graphs: same shape, sharing and classes,
// primitive values compared bit for bit (NaN payloads, -0.0).
bool sameGraph(Object* x, Object* y, std::unordered_map<Object*, Object*>& paired) {
  if (x == nullptr || y == nullptr) return x == y;
  if (auto it = paired.find(x); it != paired.end()) return it->second == y;
  paired.emplace(x, y);
  if (x->kind != y->kind || x->cls != y->cls || x->length != y->length) return false;
  switch (x->kind) {
    case ObjKind::String:
      return x->str() == y->str();
    case ObjKind::ArrayInt:
      return std::memcmp(x->intElems(), y->intElems(), 4 * static_cast<size_t>(x->length)) == 0;
    case ObjKind::ArrayLong:
    case ObjKind::ArrayDouble:
      return std::memcmp(x->longElems(), y->longElems(), 8 * static_cast<size_t>(x->length)) == 0;
    case ObjKind::ArrayRef:
      for (i32 i = 0; i < x->length; ++i) {
        if (!sameGraph(x->refElems()[i], y->refElems()[i], paired)) return false;
      }
      return true;
    case ObjKind::Plain:
      for (i32 i = 0; i < x->cls->instance_slots; ++i) {
        const Value a = x->fields()[i];
        const Value b = y->fields()[i];
        if (a.kind != b.kind) return false;
        if (a.kind == Kind::Ref ? !sameGraph(a.ref, b.ref, paired) : a.i != b.i) return false;
      }
      return true;
    case ObjKind::Native:
      return false;
  }
  return false;
}

TEST_F(CommFixture, SerializerRoundTripsEveryNodeKindDeterministically) {
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/All");
    cb.field("i", "I");
    cb.field("j", "J");
    cb.field("d", "D");
    cb.field("s", "Ljava/lang/String;");
    cb.field("ints", "[I");
    cb.field("longs", "[J");
    cb.field("doubles", "[D");
    cb.field("objs", "[Ljava/lang/Object;");
    cb.field("other", "Lt/All;");
    cb.field("empty", "[I");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* all = shared->find("t/All");
  auto slot = [&](const char* f) { return all->findField(f)->slot; };
  auto bits = [](u64 b) {
    double d;
    std::memcpy(&d, &b, sizeof(d));
    return d;
  };
  LocalRootScope roots(t);
  auto array = [&](const char* cls, i32 len) {
    return roots.add(vm->allocArrayObject(t, vm->registry().arrayClass(cls), len));
  };

  Object* a = roots.add(vm->allocObject(t, all));
  Object* b = roots.add(vm->allocObject(t, all));
  Object* nul = roots.add(vm->newStringObject(t, std::string("nul\0inside", 10)));
  Object* utf8 = roots.add(vm->newStringObject(t, "h\xc3\xa9llo \xe2\x9c\x93 \xf0\x9d\x84\x9e"));
  Object* ints = array("[I", 4);
  const i32 int_vals[4] = {INT_MIN, -1, 0, INT_MAX};
  std::memcpy(ints->intElems(), int_vals, sizeof(int_vals));
  Object* longs = array("[J", 3);
  const i64 long_vals[3] = {LLONG_MIN, -1, LLONG_MAX};
  std::memcpy(longs->longElems(), long_vals, sizeof(long_vals));
  Object* doubles = array("[D", 5);
  const u64 double_bits[5] = {0x7ff8000000000123ull, 0xfff0000000000001ull,
                              0x8000000000000000ull, 0x7ff0000000000000ull, 1};
  std::memcpy(doubles->doubleElems(), double_bits, sizeof(double_bits));
  Object* objs = array("[Ljava/lang/Object;", 6);
  Object* inner = array("[Ljava/lang/Object;", 1);
  inner->refElems()[0] = objs;  // a cycle through arrays
  Object* const obj_vals[6] = {nul, ints, a, nullptr, roots.add(vm->newStringObject(t, "")),
                               inner};
  std::memcpy(objs->refElems(), obj_vals, sizeof(obj_vals));

  a->fields()[slot("i")] = Value::ofInt(INT_MIN);
  a->fields()[slot("j")] = Value::ofLong(LLONG_MAX);
  a->fields()[slot("d")] = Value::ofDouble(-0.0);
  a->fields()[slot("s")] = Value::ofRef(nul);
  a->fields()[slot("ints")] = Value::ofRef(ints);
  a->fields()[slot("longs")] = Value::ofRef(longs);
  a->fields()[slot("doubles")] = Value::ofRef(doubles);
  a->fields()[slot("objs")] = Value::ofRef(objs);
  a->fields()[slot("other")] = Value::ofRef(b);
  a->fields()[slot("empty")] = Value::ofRef(array("[I", 0));
  b->fields()[slot("i")] = Value::ofInt(INT_MAX);
  b->fields()[slot("j")] = Value::ofLong(LLONG_MIN);
  b->fields()[slot("d")] = Value::ofDouble(bits(0x7ff8000000000042ull));
  b->fields()[slot("s")] = Value::ofRef(utf8);
  b->fields()[slot("ints")] = Value::ofRef(ints);  // shared
  b->fields()[slot("longs")] = Value::ofRef(array("[J", 0));
  b->fields()[slot("doubles")] = Value::ofRef(array("[D", 0));
  b->fields()[slot("objs")] = Value::ofRef(array("[Ljava/lang/Object;", 0));
  b->fields()[slot("other")] = Value::ofRef(a);  // cycle

  for (Object* root : {a, static_cast<Object*>(nullptr), nul, utf8, ints, longs, doubles,
                       objs, b->fields()[slot("longs")].asRef()}) {
    const std::string bytes = serializeGraph(*vm, root);
    EXPECT_EQ(serializeGraph(*vm, root), bytes);  // deterministic
    Object* copy = roots.add(deserializeGraph(*vm, t, bytes));
    ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
    std::unordered_map<Object*, Object*> paired;
    EXPECT_TRUE(sameGraph(root, copy, paired));
    if (root != nullptr) {
      EXPECT_NE(copy, root);
    }
    EXPECT_EQ(serializeGraph(*vm, copy), bytes);  // canonical
  }
}

TEST_F(CommFixture, HundredThousandNodeListsDoNotOverflowTheHostStack) {
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Link");
    cb.field("v", "I");
    cb.field("next", "Lt/Link;");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* link = shared->find("t/Link");
  const i32 v_slot = link->findField("v")->slot;
  const i32 next_slot = link->findField("next")->slot;
  constexpr i32 kLength = 100000;
  LocalRootScope roots(t);
  Object* head = nullptr;
  for (i32 i = kLength - 1; i >= 0; --i) {
    Object* o = roots.add(vm->allocObject(t, link));
    ASSERT_NE(o, nullptr);
    o->fields()[v_slot] = Value::ofInt(i);
    o->fields()[next_slot] = Value::ofRef(head);
    head = o;
  }
  auto expectList = [&](Object* l) {
    i32 n = 0;
    for (; l != nullptr; l = l->fields()[next_slot].asRef(), ++n) {
      if (l->fields()[v_slot].asInt() != n) break;
    }
    EXPECT_EQ(n, kLength);
  };
  expectList(roots.add(deepCopy(*vm, t, head)));
  ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
  expectList(roots.add(transferGraph(*vm, t, fw->frameworkIsolate(), head)));
  ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
  const std::string bytes = serializeGraph(*vm, head);
  Object* back = roots.add(deserializeGraph(*vm, t, bytes));
  ASSERT_EQ(t->pending_exception, nullptr) << vm->pendingMessage(t);
  expectList(back);
  EXPECT_EQ(serializeGraph(*vm, back), bytes);
}

TEST_F(CommFixture, SerializerRejectsCorruptStream) {
  boot();
  JThread* t = vm->mainThread();
  std::string bytes = serializeGraph(*vm, nullptr);
  // Flip a payload byte: checksum must catch it.
  ASSERT_FALSE(bytes.empty());
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 1;
  Object* r = deserializeGraph(*vm, t, corrupt);
  EXPECT_EQ(r, nullptr);
  ASSERT_NE(t->pending_exception, nullptr);
  vm->clearPending(t);
}

TEST_F(CommFixture, DeepCopyCreatesDistinctObjectsChargedToReceiver) {
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Pair");
    cb.field("x", "I");
    cb.field("y", "I");
    shared->define(cb.build());
  }
  JThread* t = vm->mainThread();
  JClass* pair_cls = shared->find("t/Pair");
  LocalRootScope roots(t);
  Object* src = roots.add(vm->allocObject(t, pair_cls));
  src->fields()[pair_cls->findField("x")->slot] = Value::ofInt(11);

  Object* dup = deepCopy(*vm, t, src);
  ASSERT_NE(dup, nullptr);
  EXPECT_NE(dup, src);
  EXPECT_EQ(dup->fields()[pair_cls->findField("x")->slot].asInt(), 11);
  // Mutating the copy does not affect the source (isolation of message
  // passing -- exactly what direct sharing in I-JVM does NOT do).
  dup->fields()[pair_cls->findField("x")->slot] = Value::ofInt(99);
  EXPECT_EQ(src->fields()[pair_cls->findField("x")->slot].asInt(), 11);
}

TEST_F(CommFixture, NativeBackedObjectsReportOwnerAndFieldPath) {
  // A graph that reaches a native-backed object cannot cross an isolate
  // boundary; the error must name the object's class, the isolate that
  // owns it, and the field path from the message root -- otherwise a
  // bundle author staring at a failed send has nothing to go on.
  boot();
  ClassLoader* shared = fw->frameworkIsolate()->loader;
  {
    ClassBuilder cb("t/Box");
    cb.field("left", "Ljava/lang/Object;");
    cb.field("right", "Ljava/lang/Object;");
    shared->define(cb.build());
    ClassBuilder nb("t/NativeThing");
    shared->define(nb.build());
  }
  JThread* t = vm->mainThread();
  JClass* box_cls = shared->find("t/Box");
  JClass* native_cls = shared->find("t/NativeThing");
  LocalRootScope roots(t);
  Object* box = roots.add(vm->allocObject(t, box_cls));
  Object* nat = roots.add(vm->allocNativeObject(
      t, native_cls, std::make_unique<NativePayload>()));
  ASSERT_NE(nat, nullptr);
  box->fields()[box_cls->findField("left")->slot] = Value::ofRef(nat);

  Object* dup = deepCopy(*vm, t, box);
  EXPECT_EQ(dup, nullptr);
  ASSERT_NE(t->pending_exception, nullptr);
  const std::string msg = vm->pendingMessage(t);
  EXPECT_NE(msg.find("t/NativeThing"), std::string::npos) << msg;
  const std::string owner =
      t->current_isolate.load(std::memory_order_relaxed)->name;
  EXPECT_NE(msg.find("owned by isolate '" + owner + "'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("at <root>.left"), std::string::npos) << msg;
  vm->clearPending(t);

  // The path runs through array elements too.
  Object* arr = roots.add(vm->allocArrayObject(
      t, vm->registry().arrayClass("[Ljava/lang/Object;"), 5));
  arr->refElems()[3] = nat;
  box->fields()[box_cls->findField("left")->slot] = Value::nullRef();
  box->fields()[box_cls->findField("right")->slot] = Value::ofRef(arr);
  EXPECT_EQ(deepCopy(*vm, t, box), nullptr);
  const std::string arr_msg = vm->pendingMessage(t);
  EXPECT_NE(arr_msg.find("at <root>.right[3]"), std::string::npos) << arr_msg;
  vm->clearPending(t);
}

TEST_F(CommFixture, AllFourModelsComputeTheSameResultAndOrderAsExpected) {
  boot();
  CommHarness harness(*fw);
  const i32 n = 200;  // the paper's 200 inter-bundle calls

  i64 t_local = harness.runLocal(n);
  EXPECT_EQ(harness.lastCounterValue(), n);  // local counter: n calls
  i64 t_ijvm = harness.runIJvm(n);
  EXPECT_EQ(harness.lastCounterValue(), n);  // remote counter: n calls
  i64 t_inc = harness.runIncommunicado(n);
  EXPECT_EQ(harness.lastCounterValue(), 2 * n);
  i64 t_rmi = harness.runRmi(n);
  EXPECT_EQ(harness.lastCounterValue(), 3 * n);

  // Shape of Table 1: direct calls are far cheaper than message passing.
  EXPECT_LT(t_ijvm, t_inc);
  EXPECT_LT(t_inc, t_rmi * 10);  // rmi >= inc within noise; assert not wildly off
  EXPECT_LT(t_local, t_inc);
  ::testing::Test::RecordProperty("local_ns", std::to_string(t_local));
  ::testing::Test::RecordProperty("ijvm_ns", std::to_string(t_ijvm));
  ::testing::Test::RecordProperty("incommunicado_ns", std::to_string(t_inc));
  ::testing::Test::RecordProperty("rmi_ns", std::to_string(t_rmi));
}

}  // namespace
}  // namespace ijvm
