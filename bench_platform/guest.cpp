#include "guest.h"

#include <algorithm>
#include <functional>

#include "bytecode/builder.h"
#include "workloads/bundles.h"

namespace ijvm::bench {

namespace {

constexpr i32 kTableSize = 4096;
constexpr i32 kTableMix = static_cast<i32>(0x9E3779B1u);
// Keys looked up one inter-isolate call at a time; longer requests add one
// bulk digest call.
constexpr i32 kPerKeyLookups = 64;
constexpr i32 kTenantChunks = 64;
constexpr i32 kTenantChunkInts = 1024;

const char* kCtx = "osgi/BundleContext";
const char* kRegister = "(Ljava/lang/String;Ljava/lang/Object;)V";
const char* kGetService = "(Ljava/lang/String;)Ljava/lang/Object;";

// Activator whose start() runs `body` with locals 0=this, 1=context.
ClassDef activator(const std::string& cls,
                   const std::function<void(MethodBuilder&)>& body) {
  ClassBuilder cb(cls);
  cb.addInterface("osgi/BundleActivator");
  auto& start = cb.method("start", "(Losgi/BundleContext;)V");
  body(start);
  start.ret();
  cb.method("stop", "(Losgi/BundleContext;)V").ret();
  return cb.build();
}

// Stack effect: reply -> (); stores acc/n from locals into a fresh
// api/Reply kept in local `slot`.
void newReply(MethodBuilder& m, i32 slot, i32 acc_local, i32 n_local) {
  m.newDefault("api/Reply").astore(slot);
  m.aload(slot).iload(acc_local).putfield("api/Reply", "acc", "I");
  m.aload(slot).iload(n_local).putfield("api/Reply", "n", "I");
}

u32 tableAt(u32 i) { return i * static_cast<u32>(kTableMix) ^ (i >> 3); }

u32 lookup(u32 key) { return tableAt(key & (kTableSize - 1)) ^ key; }

}  // namespace

void defineServiceApi(Framework& fw) {
  ClassLoader* loader = fw.frameworkIsolate()->loader;
  {
    ClassBuilder cb("api/Dict", "", ACC_PUBLIC | ACC_INTERFACE);
    cb.abstractMethod("lookup", "(I)I");
    cb.abstractMethod("digest", "([I)I");
    loader->define(cb.build());
  }
  {
    ClassBuilder cb("api/Reply");
    cb.field("acc", "I");
    cb.field("n", "I");
    cb.field("head", "[I");
    loader->define(cb.build());
  }
  {
    ClassBuilder cb("api/Rec");
    for (const char* f : kRecFields) cb.field(f, "I");
    loader->define(cb.build());
  }
  {
    ClassBuilder cb("api/Handler", "", ACC_PUBLIC | ACC_INTERFACE);
    cb.abstractMethod("handle", kHandleDesc);
    loader->define(cb.build());
  }
  {
    ClassBuilder cb("api/RecHandler", "", ACC_PUBLIC | ACC_INTERFACE);
    cb.abstractMethod("handleRecs", kHandleRecsDesc);
    loader->define(cb.build());
  }
}

BundleDescriptor makeDictBundle() {
  BundleDescriptor desc;
  desc.symbolic_name = "dict";
  {
    ClassBuilder cb("dict/Impl");
    cb.addInterface("api/Dict");
    cb.field("table", "[I");
    auto& lk = cb.method("lookup", "(I)I");
    lk.aload(0).getfield("dict/Impl", "table", "[I");
    lk.iload(1).iconst(kTableSize - 1).iand().iaload();
    lk.iload(1).ixor().ireturn();

    // locals: 0=this 1=arr 2=acc 3=i 4=table
    auto& dg = cb.method("digest", "([I)I");
    Label loop = dg.newLabel(), done = dg.newLabel();
    dg.aload(0).getfield("dict/Impl", "table", "[I").astore(4);
    dg.iconst(0).istore(2).iconst(0).istore(3);
    dg.bind(loop).iload(3).aload(1).arraylength().ifIcmpGe(done);
    dg.iload(2).iconst(31).imul();
    dg.aload(4).aload(1).iload(3).iaload().iconst(kTableSize - 1).iand().iaload();
    dg.iadd().istore(2);
    dg.iinc(3, 1).gotoLabel(loop);
    dg.bind(done).iload(2).ireturn();
    desc.classes.push_back(cb.build());
  }
  // locals: 2=impl 3=table 4=i
  desc.classes.push_back(activator("dict/Activator", [](MethodBuilder& s) {
    Label loop = s.newLabel(), done = s.newLabel();
    s.newDefault("dict/Impl").astore(2);
    s.iconst(kTableSize).newarray(Kind::Int).astore(3);
    s.iconst(0).istore(4);
    s.bind(loop).iload(4).iconst(kTableSize).ifIcmpGe(done);
    s.aload(3).iload(4);
    s.iload(4).iconst(kTableMix).imul().iload(4).iconst(3).iushr().ixor();
    s.iastore();
    s.iinc(4, 1).gotoLabel(loop);
    s.bind(done).aload(2).aload(3).putfield("dict/Impl", "table", "[I");
    s.aload(1).ldcStr("dict").aload(2).invokevirtual(kCtx, "registerService", kRegister);
  }));
  desc.activator = "dict/Activator";
  return desc;
}

BundleDescriptor makeFrontEndBundle(const std::string& name) {
  BundleDescriptor desc;
  desc.symbolic_name = name;
  const std::string pkg = bundlePkg(name);
  const std::string cls = pkg + "/Handler";
  {
    ClassBuilder cb(cls);
    cb.addInterface("api/Handler");
    cb.addInterface("api/RecHandler");
    cb.field("dict", "Lapi/Dict;");
    cb.field("ring", "[Ljava/lang/Object;");

    // locals: 0=this 1=seq 2=arr 3=n 4=m 5=acc 6=i 7=dict 8=reply 9=head
    auto& h = cb.method("handle", kHandleDesc);
    Label clamp = h.newLabel(), loop = h.newLabel(), done = h.newLabel(),
          small = h.newLabel();
    h.aload(0).getfield(cls, "dict", "Lapi/Dict;").astore(7);
    h.aload(2).arraylength().istore(3);
    h.iload(3).istore(4);
    h.iload(4).iconst(kPerKeyLookups).ifIcmpLe(clamp);
    h.iconst(kPerKeyLookups).istore(4);
    h.bind(clamp).iconst(0).istore(5).iconst(0).istore(6);
    h.bind(loop).iload(6).iload(4).ifIcmpGe(done);
    h.iload(5).iconst(31).imul();
    h.aload(7).aload(2).iload(6).iaload();
    h.invokeinterface("api/Dict", "lookup", "(I)I");
    h.iadd().istore(5);
    h.iinc(6, 1).gotoLabel(loop);
    h.bind(done).iload(3).iconst(kPerKeyLookups).ifIcmpLe(small);
    h.iload(5).iconst(31).imul();
    h.aload(7).aload(2).invokeinterface("api/Dict", "digest", "([I)I");
    h.iadd().istore(5);
    h.bind(small);
    h.aload(0).getfield(cls, "ring", "[Ljava/lang/Object;");
    h.iload(1).iconst(kRetained - 1).iand().aload(2).aastore();
    newReply(h, 8, 5, 3);
    h.iconst(3).newarray(Kind::Int).astore(9);
    h.aload(9).iconst(0).aload(2).iconst(0).iaload().iastore();
    h.aload(9).iconst(1).aload(2).iload(3).iconst(1).isub().iaload().iastore();
    h.aload(9).iconst(2).aload(7).aload(2).iload(3).iconst(1).isub().iaload();
    h.invokeinterface("api/Dict", "lookup", "(I)I").iastore();
    h.aload(8).aload(9).putfield("api/Reply", "head", "[I");
    h.aload(8).areturn();

    // locals: 0=this 1=seq 2=recs 3=n 4=acc 5=i 6=rec 7=reply
    auto& r = cb.method("handleRecs", kHandleRecsDesc);
    Label rloop = r.newLabel(), rdone = r.newLabel();
    r.aload(2).arraylength().istore(3);
    r.iconst(0).istore(4).iconst(0).istore(5);
    r.bind(rloop).iload(5).iload(3).ifIcmpGe(rdone);
    r.aload(2).iload(5).aaload().checkcast("api/Rec").astore(6);
    r.iload(4).iconst(31).imul();
    r.aload(6).getfield("api/Rec", kRecFields[0], "I");
    for (size_t f = 1; f < kRecInts; ++f) {
      r.aload(6).getfield("api/Rec", kRecFields[f], "I").ixor();
    }
    r.iadd().istore(4);
    r.iinc(5, 1).gotoLabel(rloop);
    r.bind(rdone).aload(0).getfield(cls, "dict", "Lapi/Dict;").iload(4);
    r.invokeinterface("api/Dict", "lookup", "(I)I").istore(4);
    r.aload(0).getfield(cls, "ring", "[Ljava/lang/Object;");
    r.iload(1).iconst(kRetained - 1).iand().aload(2).aastore();
    newReply(r, 7, 4, 3);
    r.aload(7).areturn();
    desc.classes.push_back(cb.build());
  }
  // locals: 2=handler
  desc.classes.push_back(activator(pkg + "/Activator", [&](MethodBuilder& s) {
    s.newDefault(cls).astore(2);
    s.aload(2).aload(1).ldcStr("dict").invokevirtual(kCtx, "getService", kGetService);
    s.checkcast("api/Dict").putfield(cls, "dict", "Lapi/Dict;");
    s.aload(2).iconst(kRetained).anewarray("java/lang/Object");
    s.putfield(cls, "ring", "[Ljava/lang/Object;");
    s.aload(1).ldcStr(name).aload(2).invokevirtual(kCtx, "registerService", kRegister);
  }));
  desc.activator = pkg + "/Activator";
  return desc;
}

BundleDescriptor makeTenantBundle(const std::string& name) {
  BundleDescriptor desc;
  desc.symbolic_name = name;
  const std::string pkg = bundlePkg(name);
  const std::string cls = pkg + "/Handler";
  {
    ClassBuilder cb(cls);
    cb.addInterface("api/Handler");
    // locals: 0=this 1=seq 2=arr 3=n 4=acc 5=r 6=chunk 7=reply
    auto& h = cb.method("handle", kHandleDesc);
    Label loop = h.newLabel(), done = h.newLabel();
    h.aload(2).arraylength().istore(3);
    h.iconst(0).istore(4).iconst(0).istore(5);
    h.bind(loop).iload(5).iconst(kTenantChunks).ifIcmpGe(done);
    h.iconst(kTenantChunkInts).newarray(Kind::Int).astore(6);
    h.aload(6).iload(5).aload(2).iload(5).iload(3).irem().iaload().iastore();
    h.iload(4).iconst(31).imul().aload(6).iload(5).iaload().iadd();
    h.aload(6).arraylength().iadd().istore(4);
    h.iinc(5, 1).gotoLabel(loop);
    h.bind(done);
    newReply(h, 7, 4, 3);
    h.aload(7).areturn();
    desc.classes.push_back(cb.build());
  }
  desc.classes.push_back(activator(pkg + "/Activator", [&](MethodBuilder& s) {
    s.newDefault(cls).astore(2);
    s.aload(1).ldcStr(name).aload(2).invokevirtual(kCtx, "registerService", kRegister);
  }));
  desc.activator = pkg + "/Activator";
  return desc;
}

BundleDescriptor makeSpecBundle(const std::string& name, const SpecWorkload& wl) {
  BundleDescriptor desc;
  desc.symbolic_name = name;
  for (const ClassDef& def : wl.classes) desc.classes.emplace_back(def);
  const std::string pkg = bundlePkg(name);
  const std::string cls = pkg + "/Handler";
  {
    ClassBuilder cb(cls);
    cb.addInterface("api/Handler");
    // locals: 0=this 1=seq 2=arr 3=size 4=reply 5=acc
    auto& h = cb.method("handle", kHandleDesc);
    h.aload(2).iconst(0).iaload().istore(3);
    h.iload(3).invokestatic(wl.main_class, "run", "(I)I").istore(5);
    newReply(h, 4, 5, 3);
    h.aload(4).areturn();
    desc.classes.push_back(cb.build());
  }
  desc.classes.push_back(activator(pkg + "/Activator", [&](MethodBuilder& s) {
    s.newDefault(cls).astore(2);
    s.aload(1).ldcStr(name).aload(2).invokevirtual(kCtx, "registerService", kRegister);
  }));
  desc.activator = pkg + "/Activator";
  return desc;
}

BundleDescriptor makeClientBundle() {
  BundleDescriptor desc;
  desc.symbolic_name = "client";
  ClassBuilder cb("client/Gen");
  cb.nativeMethod("ints", "(I)[I", ACC_STATIC);
  cb.nativeMethod("recs", "(I)[Lapi/Rec;", ACC_STATIC);
  desc.classes.push_back(cb.build());
  return desc;
}

ExpectedReply referenceFrontEnd(const std::vector<i32>& req) {
  const i32 n = static_cast<i32>(req.size());
  u32 acc = 0;
  for (i32 i = 0; i < std::min(n, kPerKeyLookups); ++i) {
    acc = acc * 31 + lookup(static_cast<u32>(req[static_cast<size_t>(i)]));
  }
  if (n > kPerKeyLookups) {
    u32 digest = 0;
    for (i32 v : req) digest = digest * 31 + tableAt(static_cast<u32>(v) & (kTableSize - 1));
    acc = acc * 31 + digest;
  }
  const u32 last = static_cast<u32>(req.back());
  return {static_cast<i32>(acc), n,
          {req.front(), req.back(), static_cast<i32>(lookup(last))}};
}

ExpectedReply referenceFrontEndRecs(const std::vector<i32>& req) {
  const size_t recs = std::min(req.size() / kRecInts, kRecsPerMessage);
  u32 acc = 0;
  for (size_t i = 0; i < recs; ++i) {
    u32 mixed = 0;
    for (size_t f = 0; f < kRecInts; ++f) mixed ^= static_cast<u32>(req[kRecInts * i + f]);
    acc = acc * 31 + mixed;
  }
  return {static_cast<i32>(lookup(acc)), static_cast<i32>(recs), {}};
}

ExpectedReply referenceTenant(const std::vector<i32>& req) {
  const size_t n = req.size();
  u32 acc = 0;
  for (i32 r = 0; r < kTenantChunks; ++r) {
    acc = acc * 31 + static_cast<u32>(req[static_cast<size_t>(r) % n]) +
          static_cast<u32>(kTenantChunkInts);
  }
  return {static_cast<i32>(acc), static_cast<i32>(n), {}};
}

}  // namespace ijvm::bench
