#include "comm/serializer.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "heap/object.h"
#include "obs/trace.h"
#include "support/strf.h"

namespace ijvm {

// Primitive arrays travel as raw little-endian blocks, copied with one
// memcpy each way (docs/comm.md, "Wire format").
static_assert(std::endian::native == std::endian::little,
              "the graph wire format assumes a little-endian host");

namespace {

// Instance fields of `cls` in a stable order (superclass first).
std::vector<JField*> instanceFields(JClass* cls) {
  std::vector<JField*> out;
  std::vector<JClass*> chain;
  for (JClass* c = cls; c != nullptr; c = c->super) chain.push_back(c);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (JField& f : (*it)->fields) {
      if (!f.isStatic()) out.push_back(&f);
    }
  }
  return out;
}

// Instance-field lists cached for one walk, so a graph of many objects of
// a few classes lists each class's fields once. Lists never move: walk
// frames hold on to them.
class FieldLists {
 public:
  const std::vector<JField*>& of(JClass* cls) {
    if (last_ != nullptr && last_->cls == cls) return last_->fields;
    for (const auto& e : entries_) {
      if (e->cls == cls) {
        last_ = e.get();
        return last_->fields;
      }
    }
    entries_.push_back(std::make_unique<Entry>(Entry{cls, instanceFields(cls)}));
    last_ = entries_.back().get();
    return last_->fields;
  }

 private:
  struct Entry {
    JClass* cls;
    std::vector<JField*> fields;
  };
  std::vector<std::unique_ptr<Entry>> entries_;
  Entry* last_ = nullptr;
};

// Address-keyed map for one walk's visited set: open addressing with
// linear probing, power-of-two capacity, no erase.
template <class V>
class PtrMap {
 public:
  // The value stored for `key`, or nullptr.
  V* find(const void* key) {
    if (slots_.empty()) return nullptr;
    for (size_t i = hash(key) & mask();; i = (i + 1) & mask()) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == nullptr) return nullptr;
    }
  }
  // `key` must not be present yet.
  void insert(const void* key, V value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(key, value);
    ++size_;
  }

 private:
  struct Slot {
    const void* key = nullptr;
    V value{};
  };
  size_t mask() const { return slots_.size() - 1; }
  static size_t hash(const void* p) {
    u64 x = reinterpret_cast<uintptr_t>(p);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
  void place(const void* key, V value) {
    size_t i = hash(key) & mask();
    while (slots_[i].key != nullptr) i = (i + 1) & mask();
    slots_[i] = Slot{key, value};
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    for (const Slot& s : old) {
      if (s.key != nullptr) place(s.key, s.value);
    }
  }
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// Brackets straight-line host code so it counts as a Running mutator:
// while counted, no stop-the-world operation (GC accounting pass,
// terminateIsolate) can complete, so the bracketed code is atomic with
// respect to both. Attached host threads (comm servers, pool embedders)
// sit in Blocked between guest calls and are NOT parked by a
// stop-the-world, so flipping them counted is the only way to exclude the
// collector; a thread already Running is already counted and needs no
// transition. The bracketed code must never poll, block or allocate.
class CountedScope {
 public:
  CountedScope(VM& vm, JThread* t)
      : sp_(vm.safepoints()),
        t_(t),
        was_blocked_(t->state.load(std::memory_order_acquire) !=
                     ThreadState::Running) {
    if (was_blocked_) sp_.exitBlocked(t_);
  }
  ~CountedScope() {
    if (was_blocked_) sp_.enterBlocked(t_);
  }
  CountedScope(const CountedScope&) = delete;
  CountedScope& operator=(const CountedScope&) = delete;

 private:
  SafepointController& sp_;
  JThread* t_;
  const bool was_blocked_;
};

// True when `o` sits in `iso`'s interned-string table. Interning only
// ever inserts a freshly allocated string (VM::internString), so an
// object that is not interned now can never become interned later -- the
// check is stable without holding the lock across the donation.
bool isInternedIn(Isolate* iso, Object* o) {
  std::lock_guard<std::mutex> lock(iso->strings_mutex);
  auto it = iso->interned_strings.find(o->str());
  return it != iso->interned_strings.end() && it->second == o;
}

// The shared copy/donate walker behind deepCopy and transferGraph.
// `sender` == nullptr disables donation (pure deep copy).
Object* copyOrTransfer(VM& vm, JThread* receiver, Isolate* sender,
                       Object* src, TransferStats* stats) {
  if (src == nullptr) return nullptr;
  Isolate* recv_iso = receiver->current_isolate.load(std::memory_order_relaxed);

  bool donate_enabled = false;
#ifndef IJVM_DISABLE_ZERO_COPY
  donate_enabled = vm.options().comm_zero_copy && vm.options().isolation &&
                   sender != nullptr && sender != recv_iso;
#else
  (void)sender;
#endif

  // Donates `o` (leaf kinds only): re-keys it to the receiver and moves
  // its bytes from the sender's account to the receiver's. The decisive
  // checks repeat inside a CountedScope so the re-key + charge transfer
  // cannot interleave with a GC's charge recomputation or with
  // terminateIsolate (docs/comm.md, "Donation vs termination"). Returns
  // nullptr when ineligible; the caller falls back to copying.
  auto tryDonate = [&](Object* o) -> Object* {
    // Cheap conservative pre-checks (racy reads are fine; the decisive
    // repeat is inside the bracket).
    if (o->creator_isolate != sender->id || o->monitor != nullptr) {
      return nullptr;
    }
    if (o->kind == ObjKind::String && isInternedIn(sender, o)) return nullptr;
    CountedScope counted(vm, receiver);
    if (!sender->isActive() || !recv_iso->isActive()) return nullptr;
    if (o->creator_isolate != sender->id || o->monitor != nullptr) {
      return nullptr;
    }
    o->creator_isolate = recv_iso->id;
    const u64 bytes = o->byte_size;
    if (vm.options().accounting) {
      // Debit the receiver before crediting the sender so a concurrent
      // memory-limit check never observes the bytes as unowned.
      recv_iso->stats.donated_bytes_delta.fetch_add(
          static_cast<i64>(bytes), std::memory_order_relaxed);
      sender->stats.donated_bytes_delta.fetch_sub(
          static_cast<i64>(bytes), std::memory_order_relaxed);
      recv_iso->stats.bytes_donated_in.fetch_add(bytes, std::memory_order_relaxed);
      sender->stats.bytes_donated_out.fetch_add(bytes, std::memory_order_relaxed);
      recv_iso->stats.objects_donated_in.fetch_add(1, std::memory_order_relaxed);
      sender->stats.objects_donated_out.fetch_add(1, std::memory_order_relaxed);
    }
    if (stats != nullptr) {
      stats->objects_donated += 1;
      stats->bytes_donated += bytes;
    }
    return o;
  };

  // Interior nodes whose children are still being copied, innermost last.
  // `fields` is null for a reference array; `next` is one past the child
  // being visited.
  struct Frame {
    Object* src;
    Object* dup;
    const std::vector<JField*>* fields;
    i32 next;
  };
  std::vector<Frame> stack;
  PtrMap<Object*> copies;
  FieldLists field_lists;

  // Field/element path to the node being visited ("<root>.payload[3]"),
  // read off the walk stack; built only for an error message.
  auto pathString = [&]() {
    std::string p = "<root>";
    for (const Frame& f : stack) {
      const i32 i = f.next - 1;
      p += f.fields == nullptr ? strf("[%d]", i) : "." + (*f.fields)[i]->name;
    }
    return p;
  };

  // Copies or donates the node `o` itself; a copied interior node is
  // pushed so the loop below fills in its children. Returns nullptr with a
  // pending exception on failure.
  auto visit = [&](Object* o) -> Object* {
    if (Object** seen = copies.find(o)) return *seen;
    // Donation fast path: only leaf kinds (primitive arrays, strings) are
    // eligible, so a donated node has no children to walk.
    if (donate_enabled &&
        (o->kind == ObjKind::String || o->kind == ObjKind::ArrayInt ||
         o->kind == ObjKind::ArrayLong || o->kind == ObjKind::ArrayDouble)) {
      if (Object* d = tryDonate(o)) {
        copies.insert(o, d);
        return d;
      }
    }
    Object* dup = nullptr;
    switch (o->kind) {
      case ObjKind::String:
        dup = vm.newStringObject(receiver, o->str());
        break;
      case ObjKind::ArrayInt:
      case ObjKind::ArrayLong:
      case ObjKind::ArrayDouble: {
        dup = vm.allocArrayObject(receiver, o->cls, o->length);
        if (dup != nullptr && o->length > 0) {
          size_t elem = o->kind == ObjKind::ArrayInt ? sizeof(i32) : sizeof(i64);
          std::memcpy(dup->intElems(), o->intElems(),
                      elem * static_cast<size_t>(o->length));
        }
        break;
      }
      case ObjKind::ArrayRef:
        dup = vm.allocArrayObject(receiver, o->cls, o->length);
        break;
      case ObjKind::Plain:
        dup = vm.allocObject(receiver, o->cls);
        break;
      case ObjKind::Native: {
        Isolate* owner = vm.isolateById(o->creator_isolate);
        vm.throwGuest(
            receiver, "java/lang/IllegalArgumentException",
            strf("cannot copy native-backed object: %s (owned by isolate "
                 "'%s' #%d) at %s",
                 o->cls->name.c_str(),
                 owner != nullptr ? owner->name.c_str() : "?",
                 o->creator_isolate, pathString().c_str()));
        return nullptr;
      }
    }
    if (dup == nullptr) {
      if (receiver->pending_exception == nullptr) {
        vm.throwGuest(receiver, "java/lang/OutOfMemoryError", "deepCopy");
      }
      return nullptr;
    }
    copies.insert(o, dup);
    if (stats != nullptr) {
      stats->objects_copied += 1;
      stats->bytes_copied += dup->byte_size;
    }
    if (o->kind == ObjKind::ArrayRef) {
      stack.push_back({o, dup, nullptr, 0});
    } else if (o->kind == ObjKind::Plain) {
      stack.push_back({o, dup, &field_lists.of(o->cls), 0});
    }
    return dup;
  };

  // Only the root needs a local root: every other copy is stored into its
  // (reachable) parent before the next allocation.
  LocalRootScope roots(receiver);
  Object* root = roots.add(visit(src));
  if (root == nullptr) return nullptr;
  while (!stack.empty()) {
    Frame& f = stack.back();
    Object* const dup = f.dup;  // `f` dangles once visit() pushes
    if (f.fields == nullptr) {
      if (f.next == f.src->length) {
        stack.pop_back();
        continue;
      }
      const i32 i = f.next++;
      Object* child = f.src->refElems()[i];
      if (child == nullptr) continue;
      Object* copy = visit(child);
      if (copy == nullptr) return nullptr;
      dup->refElems()[i] = copy;
    } else {
      if (f.next == static_cast<i32>(f.fields->size())) {
        stack.pop_back();
        continue;
      }
      const i32 slot = (*f.fields)[static_cast<size_t>(f.next++)]->slot;
      Value v = f.src->fields()[slot];
      if (v.kind == Kind::Ref && v.ref != nullptr) {
        v.ref = visit(v.ref);
        if (v.ref == nullptr) return nullptr;
      }
      dup->fields()[slot] = v;
    }
  }
  return root;
}

}  // namespace

Object* deepCopy(VM& vm, JThread* receiver, Object* src) {
  return copyOrTransfer(vm, receiver, /*sender=*/nullptr, src, nullptr);
}

Object* transferGraph(VM& vm, JThread* receiver, Isolate* sender, Object* root,
                      TransferStats* stats) {
  TransferStats local;
  if (stats == nullptr) stats = &local;
  Object* out = copyOrTransfer(vm, receiver, sender, root, stats);
  if (stats->objects_donated > 0 && obs::traceEnabled()) {
    Isolate* recv_iso =
        receiver->current_isolate.load(std::memory_order_relaxed);
    obs::emit(obs::Ev::CommDonate, obs::Ph::Instant, recv_iso->id,
              stats->bytes_donated, stats->objects_donated);
    obs::recordLatency(obs::Lat::DonatedBytes, stats->bytes_donated);
  }
  return out;
}

// ------------------------------------------------------------ wire format

namespace {

// Stream header: magic ("IJG" + format version), u32 body length, u64
// body checksum (docs/comm.md, "Wire format").
constexpr char kMagic[4] = {'I', 'J', 'G', 1};
constexpr size_t kHeaderBytes = 16;

// Node and field-value tags.
enum Tag : u8 {
  kNull = 0,     // null reference
  kBack = 1,     // varint id of a node earlier in the stream
  kStr = 2,      // varint byte length, bytes
  kInts = 3,     // varint length, raw i32 block
  kLongs = 4,    // varint length, raw i64 block
  kDoubles = 5,  // varint length, raw double block
  kRefs = 6,     // class ref, varint length, one node per element
  kObj = 7,      // class ref, varint field count, one value per field
  kInt = 8,      // field value: zigzag varint
  kLong = 9,     // field value: zigzag varint
  kDouble = 10,  // field value: 8 raw bytes
};

// Deepest array class a stream may name (the JVM's own limit).
constexpr size_t kMaxArrayDims = 255;

u64 load64(const u8* p) {
  u64 w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// 64-bit checksum of the body, 8 bytes per step over four interleaved
// lanes. Each step lane = (lane ^ word) * K (K odd) is a bijection of the
// lane for a fixed word and of the word for a fixed lane, and so is the
// final fold, so any change confined to one word -- every single-bit flip
// -- changes the result.
u64 bodyChecksum(const u8* p, size_t n) {
  constexpr u64 kMul = 0x9E3779B97F4A7C15ull;
  u64 lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                 0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (size_t k = 0; k < 4; ++k) lane[k] = (lane[k] ^ load64(p + i + 8 * k)) * kMul;
  }
  for (; i + 8 <= n; i += 8) lane[0] = (lane[0] ^ load64(p + i)) * kMul;
  u64 tail = 0;
  std::memcpy(&tail, p + i, n - i);
  lane[1] = (lane[1] ^ tail) * kMul;
  u64 h = n;
  for (u64 l : lane) {
    h = (h ^ l) * kMul;
    h ^= h >> 29;
  }
  return h;
}

// Fills in the header of `s`, whose first kHeaderBytes are reserved for it.
void sealInPlace(std::string& s) {
  const size_t body = s.size() - kHeaderBytes;
  IJVM_CHECK(body <= UINT32_MAX, "serialized graph exceeds 4 GiB");
  const u32 len = static_cast<u32>(body);
  const u64 sum =
      bodyChecksum(reinterpret_cast<const u8*>(s.data()) + kHeaderBytes, body);
  std::memcpy(s.data(), kMagic, 4);
  std::memcpy(s.data() + 4, &len, 4);
  std::memcpy(s.data() + 8, &sum, 8);
}

u64 zigzag(i64 v) { return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63); }
i64 unzigzag(u64 z) { return static_cast<i64>(z >> 1) ^ -static_cast<i64>(z & 1); }

// Resolves a class name from a stream or a declared field type through
// `ctx` without reaching the registry's trusted-input panics: nullptr for
// malformed names, unknown classes, and arrays the registry cannot build
// (multi-dimensional arrays of non-system classes).
JClass* resolveClassName(ClassRegistry& reg, ClassLoader* ctx,
                         const std::string& name) {
  size_t dims = 0;
  while (dims < name.size() && name[dims] == '[') ++dims;
  if (dims == 0) return name.empty() ? nullptr : reg.resolve(ctx, name);
  if (dims > kMaxArrayDims) return nullptr;
  const std::string_view base = std::string_view(name).substr(dims);
  if (base == "I" || base == "J" || base == "D") return reg.arrayClass(name);
  if (base.size() < 3 || base.front() != 'L' || base.back() != ';') return nullptr;
  const std::string elem(base.substr(1, base.size() - 2));
  if (elem.find_first_of("[;") != std::string::npos) return nullptr;
  JClass* e = reg.resolve(ctx, elem);
  if (e == nullptr) return nullptr;
  if (dims == 1) return reg.resolve(ctx, name);
  return e->loader == reg.systemLoader() ? reg.arrayClass(name) : nullptr;
}

class Encoder {
 public:
  std::string run(Object* root) {
    out_.assign(kHeaderBytes, '\0');
    node(root);
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (f.fields == nullptr) {
        if (f.next == f.obj->length) {
          stack_.pop_back();
          continue;
        }
        node(f.obj->refElems()[f.next++]);
      } else {
        if (f.next == static_cast<i32>(f.fields->size())) {
          stack_.pop_back();
          continue;
        }
        value(f.obj->fields()[(*f.fields)[static_cast<size_t>(f.next++)]->slot]);
      }
    }
    sealInPlace(out_);
    return std::move(out_);
  }

 private:
  // An array or object whose children are still being written; `fields`
  // is null for a reference array.
  struct Frame {
    Object* obj;
    const std::vector<JField*>* fields;
    i32 next;
  };

  void byte(u8 b) { out_.push_back(static_cast<char>(b)); }
  void varint(u64 v) {
    char buf[10];
    size_t n = 0;
    while (v >= 0x80) {
      buf[n++] = static_cast<char>(v | 0x80);
      v >>= 7;
    }
    buf[n++] = static_cast<char>(v);
    out_.append(buf, n);
  }
  void raw(const void* p, size_t n) { out_.append(static_cast<const char*>(p), n); }

  // A class the stream has not named yet gets the next table index,
  // followed by its name.
  void classRef(JClass* cls) {
    if (const u32* idx = classes_.find(cls)) {
      varint(*idx);
      return;
    }
    classes_.insert(cls, next_class_);
    varint(next_class_++);
    varint(cls->name.size());
    raw(cls->name.data(), cls->name.size());
  }

  void value(const Value& v) {
    switch (v.kind) {
      case Kind::Int:
        byte(kInt);
        varint(static_cast<u32>(zigzag(v.asInt())));
        break;
      case Kind::Long:
        byte(kLong);
        varint(zigzag(v.asLong()));
        break;
      case Kind::Double:
        byte(kDouble);
        raw(&v.d, sizeof(double));
        break;
      case Kind::Ref:
        node(v.ref);
        break;
      case Kind::Void:
        byte(kNull);
        break;
    }
  }

  // Writes `o`'s tag and header; leaves are written whole, an array or
  // object is pushed so run() writes its children.
  void node(Object* o) {
    // Native-backed objects cannot cross a boundary: they travel as null
    // and take no id (callers validate beforehand).
    if (o == nullptr || o->kind == ObjKind::Native) {
      byte(kNull);
      return;
    }
    if (const u32* id = ids_.find(o)) {
      byte(kBack);
      varint(*id);
      return;
    }
    ids_.insert(o, next_id_++);
    const size_t len = static_cast<size_t>(o->length);
    switch (o->kind) {
      case ObjKind::String:
        byte(kStr);
        varint(o->str().size());
        raw(o->str().data(), o->str().size());
        break;
      case ObjKind::ArrayInt:
        byte(kInts);
        varint(len);
        raw(o->intElems(), len * sizeof(i32));
        break;
      case ObjKind::ArrayLong:
        byte(kLongs);
        varint(len);
        raw(o->longElems(), len * sizeof(i64));
        break;
      case ObjKind::ArrayDouble:
        byte(kDoubles);
        varint(len);
        raw(o->doubleElems(), len * sizeof(double));
        break;
      case ObjKind::ArrayRef:
        byte(kRefs);
        classRef(o->cls);
        varint(len);
        stack_.push_back({o, nullptr, 0});
        break;
      case ObjKind::Plain: {
        const std::vector<JField*>& fields = field_lists_.of(o->cls);
        byte(kObj);
        classRef(o->cls);
        varint(fields.size());
        stack_.push_back({o, &fields, 0});
        break;
      }
      case ObjKind::Native:
        break;  // handled above
    }
  }

  std::string out_;
  PtrMap<u32> ids_;
  PtrMap<u32> classes_;
  u32 next_id_ = 0;
  u32 next_class_ = 0;
  FieldLists field_lists_;
  std::vector<Frame> stack_;
};

// Rebuilds a graph in the receiver's isolate. Every check fails closed
// with a pending guest exception (docs/comm.md, "Validation"); a length is
// checked against the bytes left before anything is allocated for it.
class Decoder {
 public:
  Decoder(VM& vm, JThread* t, const std::string& bytes)
      : vm_(vm),
        t_(t),
        loader_(t->current_isolate.load(std::memory_order_relaxed)->loader),
        p_(reinterpret_cast<const u8*>(bytes.data())),
        end_(p_ + bytes.size()) {}

  Object* run() {
    if (!open()) return nullptr;
    u8 tag = 0;
    Object* root = nullptr;
    if (!byte(&tag) || !node(tag, nullptr, &root)) return nullptr;
    // Only the root needs a local root: every other node is stored into
    // its (reachable) parent before the next allocation.
    LocalRootScope roots(t_);
    roots.add(root);
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (f.next == f.count) {
        stack_.pop_back();
        continue;
      }
      // `f` dangles once node() pushes.
      const u32 i = f.next++;
      Object* const target = f.obj;
      const i32 cls = f.cls;
      if (!byte(&tag)) return nullptr;
      if (cls < 0) {
        Object* child = nullptr;
        if (!node(tag, target->cls->elem_class, &child)) return nullptr;
        target->refElems()[i] = child;
      } else if (!field(tag, static_cast<u32>(cls), i, target)) {
        return nullptr;
      }
    }
    if (p_ != end_) {
      fail(strf("%zu trailing bytes after the graph", left()));
      return nullptr;
    }
    return root;
  }

 private:
  // An array or object whose children are still being read. `cls` is the
  // class-table index of an object, -1 for a reference array.
  struct Frame {
    Object* obj;
    i32 cls;
    u32 next;
    u32 count;
  };
  struct FieldIn {
    JField* field;
    JClass* decl = nullptr;  // declared class, looked up on first use
  };
  struct WireClass {
    JClass* cls;
    bool checked = false;  // validated for object use, `fields` filled
    std::vector<FieldIn> fields;
  };

  bool fail(const std::string& msg,
            const char* exception = "java/lang/IllegalArgumentException") {
    vm_.throwGuest(t_, exception, msg);
    return false;
  }
  bool truncated() { return fail("truncated serialized stream"); }
  size_t left() const { return static_cast<size_t>(end_ - p_); }

  bool open() {
    if (left() < kHeaderBytes || std::memcmp(p_, kMagic, 4) != 0) {
      return fail("corrupt serialized stream: bad header");
    }
    u32 len = 0;
    u64 sum = 0;
    std::memcpy(&len, p_ + 4, 4);
    std::memcpy(&sum, p_ + 8, 8);
    p_ += kHeaderBytes;
    if (len != left()) {
      return fail(strf("corrupt serialized stream: %u body bytes declared, %zu present",
                       len, left()));
    }
    if (bodyChecksum(p_, len) != sum) {
      return fail("corrupt serialized stream: checksum mismatch");
    }
    return true;
  }

  bool byte(u8* out) {
    if (p_ == end_) return truncated();
    *out = *p_++;
    return true;
  }
  bool varint(u64* out) {
    u64 v = 0;
    for (u32 shift = 0; shift < 64; shift += 7) {
      if (p_ == end_) return truncated();
      const u8 b = *p_++;
      v |= static_cast<u64>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (shift == 63 && b > 1) break;
        *out = v;
        return true;
      }
    }
    return fail("varint overflows 64 bits");
  }
  // A count of `elem`-byte items, checked against the bytes left.
  bool length(u64* out, size_t elem) {
    if (!varint(out)) return false;
    if (*out > static_cast<u64>(INT32_MAX) || *out > left() / elem) {
      return fail(strf("length %llu exceeds the %zu bytes left in the stream",
                       static_cast<unsigned long long>(*out), left()));
    }
    return true;
  }

  bool assignable(JClass* actual, JClass* expected) {
    if (expected == nullptr || actual->isAssignableTo(expected)) return true;
    return fail(strf("%s is not assignable to %s", actual->name.c_str(),
                     expected->name.c_str()));
  }

  JClass* stringClass() {
    if (string_cls_ == nullptr) {
      string_cls_ = vm_.registry().systemLoader()->find("java/lang/String");
    }
    return string_cls_;
  }
  JClass* primArrayClass(u8 tag) {
    static constexpr const char* kNames[3] = {"[I", "[J", "[D"};
    JClass*& c = prim_cls_[tag - kInts];
    if (c == nullptr) c = vm_.registry().arrayClass(kNames[tag - kInts]);
    return c;
  }

  // Reads a class ref; a new table entry's name resolves through the
  // receiver's loader.
  bool classRef(u32* out) {
    u64 k = 0;
    if (!varint(&k)) return false;
    if (k < classes_.size()) {
      *out = static_cast<u32>(k);
      return true;
    }
    if (k != classes_.size()) {
      return fail(strf("class ref #%llu past the %zu-entry class table",
                       static_cast<unsigned long long>(k), classes_.size()));
    }
    u64 len = 0;
    if (!length(&len, 1)) return false;
    std::string name(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    JClass* cls = resolveClassName(vm_.registry(), loader_, name);
    if (cls == nullptr) return fail(name, "java/lang/NoClassDefFoundError");
    classes_.push_back(WireClass{cls, false, {}});
    *out = static_cast<u32>(k);
    return true;
  }

  // Validates class-table entry `ci` for object use and lists its fields.
  bool objectClass(u32 ci) {
    WireClass& wc = classes_[ci];
    if (wc.checked) return true;
    JClass* cls = wc.cls;
    if (cls->is_array || cls->isInterface() || (cls->flags & ACC_ABSTRACT) != 0 ||
        cls->native_factory || cls == stringClass()) {
      return fail(strf("%s cannot be instantiated from a stream", cls->name.c_str()));
    }
    for (JField* f : instanceFields(cls)) wc.fields.push_back(FieldIn{f, nullptr});
    wc.checked = true;
    return true;
  }

  // The declared class of field `i` of class-table entry `ci`.
  bool declaredClass(u32 ci, u32 i, JClass** out) {
    FieldIn& f = classes_[ci].fields[i];
    if (f.decl == nullptr) {
      f.decl = resolveClassName(vm_.registry(), f.field->owner->loader,
                                typeRuntimeClassName(f.field->type));
      if (f.decl == nullptr) {
        return fail(strf("%s (declared type of %s.%s)",
                         f.field->type.toString().c_str(),
                         f.field->owner->name.c_str(), f.field->name.c_str()),
                    "java/lang/NoClassDefFoundError");
      }
    }
    *out = f.decl;
    return true;
  }

  // Reads the value of field `i` of the object `target` (class-table
  // entry `ci`), starting at its tag.
  bool field(u8 tag, u32 ci, u32 i, Object* target) {
    if (tag > kDouble) return fail(strf("unknown stream tag 0x%02x", tag));
    const JField* f = classes_[ci].fields[i].field;
    const Kind declared = f->type.kind;
    const Kind wire = tag == kInt      ? Kind::Int
                      : tag == kLong   ? Kind::Long
                      : tag == kDouble ? Kind::Double
                                       : Kind::Ref;
    if (wire != declared) {
      return fail(strf("field %s.%s is %s, the stream holds %s", f->owner->name.c_str(),
                       f->name.c_str(), kindName(declared), kindName(wire)));
    }
    Value v;
    switch (tag) {
      case kInt: {
        u64 z = 0;
        if (!varint(&z)) return false;
        if (z > UINT32_MAX) return fail("int field value out of range");
        v = Value::ofInt(static_cast<i32>(unzigzag(z)));
        break;
      }
      case kLong: {
        u64 z = 0;
        if (!varint(&z)) return false;
        v = Value::ofLong(unzigzag(z));
        break;
      }
      case kDouble: {
        if (left() < sizeof(double)) return truncated();
        double d = 0;
        std::memcpy(&d, p_, sizeof(double));
        p_ += sizeof(double);
        v = Value::ofDouble(d);
        break;
      }
      default: {
        JClass* decl = nullptr;
        Object* child = nullptr;
        if ((tag != kNull && !declaredClass(ci, i, &decl)) || !node(tag, decl, &child)) {
          return false;
        }
        v = Value::ofRef(child);
        break;
      }
    }
    target->fields()[f->slot] = v;
    return true;
  }

  // Reads the node starting at `tag` into *out; `expected` is the class it
  // must be assignable to (nullptr: any), checked before allocating. An
  // array or object is pushed, and run() reads its children.
  bool node(u8 tag, JClass* expected, Object** out) {
    *out = nullptr;
    switch (tag) {
      case kNull:
        return true;
      case kBack: {
        u64 id = 0;
        if (!varint(&id)) return false;
        if (id >= ids_.size()) {
          return fail(strf("back-reference to unseen id %llu",
                           static_cast<unsigned long long>(id)));
        }
        if (!assignable(ids_[id]->cls, expected)) return false;
        *out = ids_[id];
        return true;
      }
      case kStr: {
        u64 len = 0;
        if (!length(&len, 1) || !assignable(stringClass(), expected)) return false;
        Object* s = vm_.newStringObject(
            t_, std::string(reinterpret_cast<const char*>(p_), len));
        if (s == nullptr) return false;
        p_ += len;
        return created(s, out);
      }
      case kInts:
      case kLongs:
      case kDoubles: {
        const size_t elem = tag == kInts ? sizeof(i32) : sizeof(i64);
        u64 len = 0;
        if (!length(&len, elem)) return false;
        JClass* cls = primArrayClass(tag);
        if (!assignable(cls, expected)) return false;
        Object* a = vm_.allocArrayObject(t_, cls, static_cast<i32>(len));
        if (a == nullptr) return false;
        std::memcpy(a->intElems(), p_, len * elem);
        p_ += len * elem;
        return created(a, out);
      }
      case kRefs: {
        u32 ci = 0;
        if (!classRef(&ci)) return false;
        JClass* cls = classes_[ci].cls;
        if (!cls->is_array || cls->elem_kind != Kind::Ref) {
          return fail(strf("%s is not a reference array class", cls->name.c_str()));
        }
        u64 len = 0;
        if (!length(&len, 1) || !assignable(cls, expected)) return false;
        Object* a = vm_.allocArrayObject(t_, cls, static_cast<i32>(len));
        if (a == nullptr) return false;
        stack_.push_back({a, -1, 0, static_cast<u32>(len)});
        return created(a, out);
      }
      case kObj: {
        u32 ci = 0;
        u64 n = 0;
        if (!classRef(&ci) || !objectClass(ci) || !varint(&n)) return false;
        JClass* cls = classes_[ci].cls;
        const size_t declared = classes_[ci].fields.size();
        if (n != declared) {
          return fail(strf("field count mismatch for %s: %llu in the stream, %zu declared",
                           cls->name.c_str(), static_cast<unsigned long long>(n),
                           declared));
        }
        if (!assignable(cls, expected)) return false;
        Object* o = vm_.allocObject(t_, cls);
        if (o == nullptr) return false;
        stack_.push_back({o, static_cast<i32>(ci), 0, static_cast<u32>(n)});
        return created(o, out);
      }
      case kInt:
      case kLong:
      case kDouble:
        return fail(strf("primitive value (tag %u) where a reference is expected", tag));
      default:
        return fail(strf("unknown stream tag 0x%02x", tag));
    }
  }

  bool created(Object* o, Object** out) {
    ids_.push_back(o);
    *out = o;
    return true;
  }

  VM& vm_;
  JThread* t_;
  ClassLoader* loader_;
  const u8* p_;
  const u8* end_;
  std::vector<Object*> ids_;
  std::vector<WireClass> classes_;
  std::vector<Frame> stack_;
  JClass* string_cls_ = nullptr;
  JClass* prim_cls_[3] = {};
};

}  // namespace

std::string serializeGraph(VM& vm, Object* root) {
  (void)vm;
  return Encoder().run(root);
}

std::string sealGraphStream(std::string_view body) {
  std::string s(kHeaderBytes, '\0');
  s.append(body);
  sealInPlace(s);
  return s;
}

Object* deserializeGraph(VM& vm, JThread* receiver, const std::string& bytes) {
  return Decoder(vm, receiver, bytes).run();
}

}  // namespace ijvm
