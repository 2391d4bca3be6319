#include "osgi/framework.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>

#include "bytecode/builder.h"
#include "heap/object.h"
#include "support/strf.h"

namespace ijvm {

const char* bundleStateName(BundleState s) {
  switch (s) {
    case BundleState::Installed:
      return "INSTALLED";
    case BundleState::Active:
      return "ACTIVE";
    case BundleState::Stopping:
      return "STOPPING";
    case BundleState::Uninstalled:
      return "UNINSTALLED";
  }
  return "?";
}

namespace {

Framework* frameworkOf(VM& vm) {
  auto holder = std::static_pointer_cast<Framework*>(
      vm.getExtension(kFrameworkExtension));
  return holder != nullptr ? *holder : nullptr;
}

i32 contextBundleId(Object* ctx_obj) {
  JField* f = ctx_obj->cls->findField("bundle");
  return f != nullptr ? ctx_obj->fields()[f->slot].asInt() : -1;
}

}  // namespace

Framework::Framework(VM& vm, FrameworkOptions options)
    : vm_(vm), options_(options) {
  IJVM_CHECK(vm_.isolate0() == nullptr,
             "Framework must be created before any isolate (it becomes Isolate0)");
  framework_loader_ = vm_.registry().newLoader("osgi-framework");
  defineGuestApi();
  isolate0_ = vm_.createIsolate(framework_loader_, "osgi-framework");
  vm_.setExtension(kFrameworkExtension, std::make_shared<Framework*>(this));
}

Framework::~Framework() {
  vm_.shutdownAllThreads();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void Framework::defineGuestApi() {
  {
    ClassBuilder cb("osgi/BundleActivator", "", ACC_PUBLIC | ACC_INTERFACE);
    cb.abstractMethod("start", "(Losgi/BundleContext;)V");
    cb.abstractMethod("stop", "(Losgi/BundleContext;)V");
    framework_loader_->define(cb.build());
  }
  {
    ClassBuilder cb("osgi/BundleListener", "", ACC_PUBLIC | ACC_INTERFACE);
    cb.abstractMethod("bundleStopped", "(I)V");
    framework_loader_->define(cb.build());
  }

  ClassBuilder cb("osgi/BundleContext");
  cb.field("bundle", "I");
  cb.nativeMethod("registerService", "(Ljava/lang/String;Ljava/lang/Object;)V");
  cb.nativeMethod("getService", "(Ljava/lang/String;)Ljava/lang/Object;");
  cb.nativeMethod("addBundleListener", "(Losgi/BundleListener;)V");
  cb.nativeMethod("getBundleId", "()I");
  cb.nativeMethod("log", "(Ljava/lang/String;)V");
  context_class_ = framework_loader_->define(cb.build());

  auto bind = [&](const std::string& name, const std::string& desc, NativeFn fn) {
    JMethod* m = context_class_->findDeclared(name, desc);
    IJVM_CHECK(m != nullptr, "missing BundleContext native");
    m->native = std::move(fn);
  };

  bind("registerService", "(Ljava/lang/String;Ljava/lang/Object;)V",
       [](NativeCtx& ctx) {
         Framework* fw = frameworkOf(ctx.vm);
         Object* ctx_obj = ctx.args.at(0).asRef();
         Object* name_obj = ctx.args.at(1).asRef();
         Object* service = ctx.args.at(2).asRef();
         if (name_obj == nullptr || service == nullptr) {
           ctx.throwGuest("java/lang/NullPointerException", "registerService");
           return Value();
         }
         Bundle* owner = fw->bundleById(contextBundleId(ctx_obj));
         fw->registerService(name_obj->str(), service, owner);
         return Value();
       });
  bind("getService", "(Ljava/lang/String;)Ljava/lang/Object;", [](NativeCtx& ctx) {
    Framework* fw = frameworkOf(ctx.vm);
    Object* name_obj = ctx.args.at(1).asRef();
    if (name_obj == nullptr) {
      ctx.throwGuest("java/lang/NullPointerException", "getService");
      return Value();
    }
    return Value::ofRef(fw->getService(name_obj->str()));
  });
  bind("addBundleListener", "(Losgi/BundleListener;)V", [](NativeCtx& ctx) {
    Framework* fw = frameworkOf(ctx.vm);
    Object* ctx_obj = ctx.args.at(0).asRef();
    Object* listener = ctx.args.at(1).asRef();
    if (listener == nullptr) {
      ctx.throwGuest("java/lang/NullPointerException", "addBundleListener");
      return Value();
    }
    const i32 owner_id = contextBundleId(ctx_obj);
    Bundle* owner = fw->bundleById(owner_id);
    GlobalRef* ref = ctx.vm.addGlobalRef(
        listener, owner != nullptr ? owner->isolate() : fw->frameworkIsolate());
    std::lock_guard<std::mutex> lock(fw->mutex_);
    fw->listeners_.push_back(ListenerEntry{ref, owner_id});
    return Value();
  });
  bind("getBundleId", "()I", [](NativeCtx& ctx) {
    return Value::ofInt(contextBundleId(ctx.args.at(0).asRef()));
  });
  bind("log", "(Ljava/lang/String;)V", [](NativeCtx& ctx) {
    Object* msg = ctx.args.at(1).asRef();
    std::printf("[bundle %d] %s\n", contextBundleId(ctx.args.at(0).asRef()),
                msg != nullptr && msg->kind == ObjKind::String ? msg->str().c_str()
                                                               : "null");
    return Value();
  });
}

Bundle* Framework::install(BundleDescriptor descriptor) {
  auto bundle = std::make_unique<Bundle>();
  Bundle* b = bundle.get();
  b->name_ = descriptor.symbolic_name;
  b->version_ = descriptor.version;
  b->activator_class_ = descriptor.activator;
  // OSGi allocates a new class loader per bundle; I-JVM attaches a fresh
  // standard isolate to it (paper section 3.4).
  b->loader_ = vm_.registry().newLoader("bundle:" + descriptor.symbolic_name,
                                        framework_loader_);
  for (ClassDef& def : descriptor.classes) {
    b->loader_->define(std::move(def));
  }
  b->isolate_ = vm_.createIsolate(b->loader_, descriptor.symbolic_name);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    b->id_ = next_bundle_id_++;
    bundles_.push_back(std::move(bundle));
  }
  return b;
}

Object* Framework::makeContext(JThread* t, Bundle* bundle) {
  LocalRootScope roots(t);
  Object* ctx_obj = roots.add(vm_.allocObject(t, context_class_));
  IJVM_CHECK(ctx_obj != nullptr, "failed to allocate BundleContext");
  JField* f = context_class_->findField("bundle");
  ctx_obj->fields()[f->slot] = Value::ofInt(bundle->id_);
  bundle->context_ref_ = vm_.addGlobalRef(ctx_obj, isolate0_);
  return ctx_obj;
}

bool Framework::runOnFreshThread(const std::string& name,
                                 const std::function<void(JThread*)>& fn) {
  // Shared with the worker, which outlives this call when it times out.
  struct Completion {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
  };
  auto completion = std::make_shared<Completion>();
  JThread* t = vm_.attachThread(name, isolate0_);
  std::thread worker([fn, t, completion] {
    fn(t);
    t->pending_exception = nullptr;
    t->dropAllFrames();
    t->state.store(ThreadState::Dead, std::memory_order_release);
    t->markDone();
    {
      std::lock_guard<std::mutex> lock(completion->m);
      completion->done = true;
    }
    completion->cv.notify_all();
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.activator_timeout_ms);
  bool finished;
  {
    std::unique_lock<std::mutex> lock(completion->m);
    finished = completion->cv.wait_until(lock, deadline,
                                         [&] { return completion->done; });
  }
  if (finished) {
    worker.join();
  } else {
    // A hung callback keeps its thread until ~Framework, which joins it
    // after shutdownAllThreads cancels it.
    std::lock_guard<std::mutex> lock(mutex_);
    workers_.push_back(std::move(worker));
  }
  return finished;
}

bool Framework::start(Bundle* bundle) {
  IJVM_CHECK(bundle->state_ == BundleState::Installed,
             strf("start: bundle %s is %s", bundle->name_.c_str(),
                  bundleStateName(bundle->state_)));
  bundle->state_ = BundleState::Active;
  if (bundle->activator_class_.empty()) return true;

  // Rule 1 (paper section 3.4): call start() on a fresh thread so a
  // malicious bundle cannot freeze the OSGi runtime.
  return runOnFreshThread("start:" + bundle->name_, [this, bundle](JThread* t) {
    JClass* acls = bundle->loader_->find(bundle->activator_class_);
    if (acls == nullptr) return;
    JMethod* ctor = acls->findMethod("<init>", "()V");
    if (ctor == nullptr) return;
    LocalRootScope roots(t);
    Object* activator = roots.add(vm_.allocObject(t, acls));
    if (activator == nullptr) return;
    vm_.invoke(t, ctor, {Value::ofRef(activator)});
    if (t->pending_exception != nullptr) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      bundle->activator_ref_ = vm_.addGlobalRef(activator, bundle->isolate_);
    }
    Object* ctx_obj = makeContext(t, bundle);
    roots.add(ctx_obj);
    vm_.callVirtual(t, activator, "start", "(Losgi/BundleContext;)V",
                    {Value::ofRef(ctx_obj)});
  });
}

bool Framework::stop(Bundle* bundle) {
  if (bundle->state_ != BundleState::Active) return true;
  bundle->state_ = BundleState::Stopping;
  GlobalRef* activator_ref;
  GlobalRef* context_ref;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    activator_ref = bundle->activator_ref_;
    context_ref = bundle->context_ref_;
  }
  if (activator_ref == nullptr || activator_ref->obj == nullptr) return true;
  Object* activator = activator_ref->obj;
  Object* ctx_obj = context_ref != nullptr ? context_ref->obj : nullptr;
  return runOnFreshThread("stop:" + bundle->name_, [this, activator,
                                                    ctx_obj](JThread* t) {
    vm_.callVirtual(t, activator, "stop", "(Losgi/BundleContext;)V",
                    {Value::ofRef(ctx_obj)});
  });
}

void Framework::broadcastStopped(Bundle* dying) {
  // Rule 3 (paper section 3.4): notify other bundles so they can release
  // their references to the dying bundle's objects.
  std::vector<ListenerEntry> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = listeners_;
  }
  for (const ListenerEntry& e : snapshot) {
    if (e.owner_bundle == dying->id_) continue;
    if (e.ref == nullptr || e.ref->obj == nullptr) continue;
    Object* listener = e.ref->obj;
    const i32 dying_id = dying->id_;
    runOnFreshThread(strf("event:%d", dying_id), [this, listener,
                                                  dying_id](JThread* t) {
      vm_.callVirtual(t, listener, "bundleStopped", "(I)V",
                      {Value::ofInt(dying_id)});
    });
  }
}

void Framework::dropBundleRefs(Bundle* bundle) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = services_.begin(); it != services_.end();) {
    if (it->owner_bundle == bundle->id_) {
      vm_.removeGlobalRef(it->ref);
      it = services_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = listeners_.begin(); it != listeners_.end();) {
    if (it->owner_bundle == bundle->id_) {
      vm_.removeGlobalRef(it->ref);
      it = listeners_.erase(it);
    } else {
      ++it;
    }
  }
  if (bundle->activator_ref_ != nullptr) {
    vm_.removeGlobalRef(bundle->activator_ref_);
    bundle->activator_ref_ = nullptr;
  }
  if (bundle->context_ref_ != nullptr) {
    vm_.removeGlobalRef(bundle->context_ref_);
    bundle->context_ref_ = nullptr;
  }
}

void Framework::killBundle(Bundle* bundle) { killBundleFrom(adminThread(), bundle); }

void Framework::killBundleFrom(JThread* admin, Bundle* bundle) {
  if (bundle->state_ == BundleState::Uninstalled) return;
  bundle->state_ = BundleState::Stopping;
  broadcastStopped(bundle);
  vm_.terminateIsolate(admin, bundle->isolate_);
  dropBundleRefs(bundle);
  bundle->state_ = BundleState::Uninstalled;
  // Reclaim the bundle's objects (those not shared with other bundles).
  vm_.collectGarbage(admin, nullptr);
}

void Framework::uninstall(Bundle* bundle) {
  stop(bundle);
  killBundle(bundle);
}

std::vector<Bundle*> Framework::bundles() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Bundle*> out;
  out.reserve(bundles_.size());
  for (auto& b : bundles_) out.push_back(b.get());
  return out;
}

Bundle* Framework::findBundle(const std::string& symbolic_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& b : bundles_) {
    if (b->name_ == symbolic_name) return b.get();
  }
  return nullptr;
}

Bundle* Framework::bundleById(i32 id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& b : bundles_) {
    if (b->id_ == id) return b.get();
  }
  return nullptr;
}

void Framework::registerService(const std::string& name, Object* service,
                                Bundle* owner) {
  GlobalRef* ref = vm_.addGlobalRef(
      service, owner != nullptr ? owner->isolate_ : isolate0_);
  std::lock_guard<std::mutex> lock(mutex_);
  for (ServiceEntry& e : services_) {
    if (e.name == name) {
      vm_.removeGlobalRef(e.ref);
      e.ref = ref;
      e.owner_bundle = owner != nullptr ? owner->id_ : 0;
      return;
    }
  }
  services_.push_back(
      ServiceEntry{name, ref, owner != nullptr ? owner->id_ : 0});
}

Object* Framework::getService(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ServiceEntry& e : services_) {
    if (e.name == name) return e.ref->obj;
  }
  return nullptr;
}

Bundle* Framework::serviceOwner(const std::string& name) {
  i32 owner_id = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (ServiceEntry& e : services_) {
      if (e.name == name) {
        owner_id = e.owner_bundle;
        break;
      }
    }
  }
  return owner_id < 0 ? nullptr : bundleById(owner_id);
}

std::vector<std::string> Framework::serviceNames() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(services_.size());
  for (ServiceEntry& e : services_) out.push_back(e.name);
  return out;
}

Bundle* Framework::bundleOfIsolate(Isolate* iso) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& b : bundles_) {
    if (b->isolate_ == iso) return b.get();
  }
  return nullptr;
}

}  // namespace ijvm
