// End-to-end platform benchmark (bench_platform/README.md).
//
// A tenant's client drives bundles through the platform the way it would in
// production: one load-generator thread writes framed serializeGraph
// requests on ByteChannel connections; a mutator-pool task reads a frame,
// deserializes it into the dispatcher (Isolate0, the OSGi framework's own
// isolate), calls the target bundle's service (which calls other bundles
// directly, migrating the thread), serializes the reply and writes it back,
// where the generator reads and checks it.
//
//   bench_platform --workload <svc-small|svc-bulk|spec-mix|churn>
//                  --seed N --seconds S --trace 0|1 [--out DIR] [--git-sha SHA]
//
// Every input comes from --seed. The last stdout line is the JSON result:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exit codes: 0 ok, 1 a correctness check failed, 2 usage, 3 the run is
// invalid (every window generator-bound, a gate of README.md "Validity
// gates" broken, or the traced stages do not reconcile).
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "bytecode/builder.h"
#include "comm/serializer.h"
#include "guest.h"
#include "heap/object.h"
#include "obs/clock.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/mutator_pool.h"
#include "stats.h"
#include "stdlib/channels.h"
#include "stdlib/system_library.h"
#include "support/strf.h"

#ifndef IJVM_BUILD_TYPE
#define IJVM_BUILD_TYPE "unknown"
#endif

namespace ijvm::bench {
namespace {

// One clock for the harness and the VM's trace, so bench spans line up
// with obs::dumpChromeTrace.
u64 now() { return obs::monoNowNs(); }

constexpr size_t kConns = 4;
// Two pool workers plus the generator leave one of four cores for the
// VM's compiler and sampler threads.
constexpr u32 kWorkers = 2;
// Every run boots, warms up and measures this many independent platforms
// for --seconds / kReps each; the metrics pool their windows. Each VM makes
// its own JIT, payoff and heap-layout decisions, and a single VM's draw
// moves every metric by more than the regression bounds.
constexpr int kReps = 8;
// Untraced runs split each platform's time between the open-loop latency
// phase and the closed-loop throughput phase.
constexpr double kNominalShare = 0.6;
// Latency is summarised per window of this many consecutive requests (a p99
// with ten samples beyond it), throughput per bucket of this length.
constexpr size_t kWindowSamples = 1000;
constexpr u64 kRateBucketNs = 250'000'000;
constexpr u64 kTraceBlockNs = 500'000'000;
constexpr u64 kGraceNs = 5'000'000'000;
constexpr size_t kHeaderBytes = 12;
constexpr u32 kTracedBit = 1u << 31;
constexpr u32 kReplyOk = 0, kReplyRefused = 1, kReplyError = 2;
constexpr int kTenantCycles = 4;  // per platform
constexpr double kTenantRps = 100;
constexpr double kTenantLiveShare = 0.85;
constexpr u16 kCurrentTenant = 0xffff;
// Idle probe bundles deployed and killed on each platform after its
// measured phases (deploy_us, kill_us outside churn).
constexpr int kProbes = 8;
constexpr u16 kFrontEnds = 4;
constexpr size_t kClientSeqLen = 4096;
constexpr size_t kTraceFileRequests = 4000;
constexpr double kReconcileLimitPct = 15;
constexpr double kMiB = 1024.0 * 1024.0;

// SPEC analog job sizes (specWorkloads() order), chosen so each job takes
// a few milliseconds on the tier-3 engine: enough jobs per run for a p99
// with tens of samples beyond it.
constexpr std::array<i32, 7> kSpecSizes = {20, 200, 1000, 140, 4, 1400, 90};

struct WorkloadSpec {
  const char* name;
  double nominal_rps;  // open-loop rate of the latency phase (0: closed loop only)
  u32 window;          // requests kept outstanding by the closed-loop phase
  u32 warmup;          // requests sent by each setup's warm-up
  double slo_us;       // p99 limit of the serving phases (0: none)
  bool bulk, spec, churn;
};

// Why each workload exists, and what it should and should not move, is in
// README.md ("Workloads").
constexpr WorkloadSpec kWorkloads[] = {
    {"svc-small", 10000, 16, 8000, 5000, false, false, false},
    {"svc-bulk", 400, 8, 400, 50000, true, false, false},
    {"spec-mix", 0, 2, 28, 0, false, true, false},
    {"churn", 10000, 16, 8000, 5000, false, false, true},
};

// The generator gets a CPU of its own; everything else, including every VM
// thread (created later, they inherit the mask), gets the rest. The numbers
// then measure the program rather than how the scheduler interleaves a
// spinning generator with it. Left alone on machines with under 4 CPUs.
cpu_set_t g_generator_cpu;
bool g_partitioned = false;
std::vector<int> g_cpus;  // every CPU the process may run on

void partitionCpus() {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) g_cpus.push_back(c);
  }
  if (g_cpus.size() < 4) return;
  CPU_ZERO(&g_generator_cpu);
  CPU_SET(g_cpus.back(), &g_generator_cpu);
  CPU_CLR(g_cpus.back(), &all);
  g_partitioned = sched_setaffinity(0, sizeof(all), &all) == 0;
}

void pinGenerator() {
  if (g_partitioned) sched_setaffinity(0, sizeof(g_generator_cpu), &g_generator_cpu);
}

void pinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// ------------------------------------------------------------ host speed

// The reference host is shared with other tenants, and how fast its CPUs
// run drifts by 30% and more over minutes: every timing of a run moves
// with it. So the harness times a fixed C++ kernel (no VM code) on every
// CPU at once, while no VM is alive, before the first platform and after
// each one. A platform's slowdown is the mean of the two measurements
// around it over kReferenceKernelNs, and its timings are divided by it
// (throughput multiplied): each end-to-end time metric reads as it would
// on the reference host when nothing else runs there. The raw values are
// printed too.
constexpr double kReferenceKernelNs = 3.0e6;  // the reference host, uncontended
constexpr int kKernelReps = 15;

u64 kernelOnce(std::vector<u32>& table) {
  const u64 t0 = now();
  for (size_t i = 0; i < table.size(); ++i) table[i] = static_cast<u32>(i * 2654435761u);
  u32 h = 1;
  for (int pass = 0; pass < 8; ++pass) {
    for (size_t i = 0; i < table.size(); ++i) {
      h = (h * 2654435761u) ^ table[(h >> 7) & (table.size() - 1)];
      table[i] += h;
    }
  }
  const u64 t1 = now();
  volatile u32 sink = h;
  (void)sink;
  return t1 - t0;
}

// Median kernel time over the process's CPUs, each the median of its reps.
double kernelNs() {
  std::vector<double> per_cpu(std::max<size_t>(1, g_cpus.size()));
  std::vector<std::thread> threads;
  for (size_t k = 0; k < per_cpu.size(); ++k) {
    threads.emplace_back([k, &per_cpu] {
      if (k < g_cpus.size()) pinTo(g_cpus[k]);
      std::vector<u32> table(1u << 16);  // 256 KiB: fits in a core's private cache
      std::vector<double> reps;
      for (int r = 0; r < kKernelReps; ++r) reps.push_back(static_cast<double>(kernelOnce(table)));
      std::sort(reps.begin(), reps.end());
      per_cpu[k] = reps[reps.size() / 2];
    });
  }
  for (std::thread& t : threads) t.join();
  std::sort(per_cpu.begin(), per_cpu.end());
  return per_cpu[per_cpu.size() / 2];
}

// ---------------------------------------------------------------- inputs

struct Rng {
  u64 state;
  u64 next() {  // splitmix64
    u64 z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  u32 below(u32 n) { return static_cast<u32>(next() % n); }
};

u64 fnv1a(const std::string& s) {
  u64 h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

enum class Path : u8 { Channel, LocalInts, LocalRecs };
enum class Handler : u8 { FrontEnd, FrontEndRecs, Tenant, Spec, Count };

struct ReqSpec {
  u32 payload = 0;
  u16 service = 0;
  Path path = Path::Channel;
  u8 conn = 0;
};

struct Payload {
  std::vector<i32> ints;
  std::string wire;  // the serialized int[] request body
  std::array<u64, static_cast<size_t>(Handler::Count)> expect{};  // reply hash
};

struct Service {
  std::string name;  // also the bundle's symbolic name
  Handler handler;
};

struct OpenStream {
  std::vector<u64> at_ns;  // intended send offsets, ascending
  std::vector<ReqSpec> specs;
};

struct Inputs {
  std::vector<Payload> payloads;
  std::vector<Service> services;
  // Per platform: open-loop traffic of the latency phase, and (churn)
  // tenant traffic over the platform's whole measured time.
  std::vector<OpenStream> nominal, tenant;
  std::vector<std::vector<ReqSpec>> clients;  // closed-loop sequences
  std::vector<Handler> handlers;              // reply kinds to precompute
};

void poisson(Rng& rng, double rps, double seconds, OpenStream* out,
             const std::function<ReqSpec()>& draw) {
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rps;
    if (t >= seconds) break;
    out->at_ns.push_back(static_cast<u64>(t * 1e9));
    out->specs.push_back(draw());
  }
}

Inputs makeInputs(const WorkloadSpec& w, u64 seed, double nominal_s,
                  double rep_s) {
  Rng rng{seed};
  Inputs in;
  auto addPayload = [&](size_t n) {
    Payload p;
    p.ints.resize(n);
    for (i32& v : p.ints) v = static_cast<i32>(rng.next());
    in.payloads.push_back(std::move(p));
  };
  if (w.spec) {
    const std::vector<SpecWorkload> wls = specWorkloads();
    for (u8 c = 0; c < w.window; ++c) {
      for (size_t a = 0; a < wls.size(); ++a) {
        in.services.push_back({strf("spec%u.%s", c, wls[a].name.c_str()), Handler::Spec});
      }
    }
    for (i32 size : kSpecSizes) in.payloads.push_back(Payload{{size}, {}, {}});
    in.handlers = {Handler::Spec};
    // Each client runs the seven analogs in a fresh seeded order per round,
    // so the job mix is balanced whatever the seed.
    in.clients.resize(w.window);
    for (u8 c = 0; c < w.window; ++c) {
      std::vector<u16> order(wls.size());
      while (in.clients[c].size() < kClientSeqLen) {
        for (size_t a = 0; a < order.size(); ++a) order[a] = static_cast<u16>(a);
        for (size_t a = order.size() - 1; a > 0; --a) {
          std::swap(order[a], order[rng.below(static_cast<u32>(a + 1))]);
        }
        for (u16 a : order) {
          in.clients[c].push_back(
              ReqSpec{a, static_cast<u16>(c * wls.size() + a), Path::Channel, c});
        }
      }
    }
    return in;
  }

  if (w.bulk) {
    // 4-64 KiB of ints, log-uniform, one draw per 1/256 stratum: the pool's
    // size mix is the same whatever the seed.
    constexpr int kBulkPayloads = 256;
    for (int i = 0; i < kBulkPayloads; ++i) {
      const double u = (i + rng.uniform()) / kBulkPayloads;
      addPayload(static_cast<size_t>(std::exp(std::log(1024.0) + u * std::log(16.0))));
    }
    in.handlers = {Handler::FrontEnd, Handler::FrontEndRecs};
  } else {
    for (int i = 0; i < 4096; ++i) addPayload(64);
    in.handlers = {Handler::FrontEnd};
  }
  for (u16 k = 0; k < kFrontEnds; ++k) {
    in.services.push_back({strf("fe%u", k), Handler::FrontEnd});
  }
  const u32 npay = static_cast<u32>(in.payloads.size());
  auto draw = [&]() {
    ReqSpec s;
    s.payload = rng.below(npay);
    s.service = static_cast<u16>(rng.below(kFrontEnds));
    s.conn = static_cast<u8>(s.service);
    if (w.bulk) {
      const double u = rng.uniform();
      s.path = u < 0.5 ? Path::Channel : (u < 0.75 ? Path::LocalInts : Path::LocalRecs);
    }
    return s;
  };
  in.nominal.resize(kReps);
  for (OpenStream& s : in.nominal) poisson(rng, w.nominal_rps, nominal_s, &s, draw);
  in.clients.resize(w.window);
  for (auto& seq : in.clients) {
    for (size_t i = 0; i < kClientSeqLen; ++i) seq.push_back(draw());
  }
  if (w.churn) {
    for (int c = 0; c < kTenantCycles; ++c) {
      in.services.push_back({strf("tenant%d", c), Handler::Tenant});
    }
    in.handlers.push_back(Handler::Tenant);
    in.tenant.resize(kReps);
    for (OpenStream& s : in.tenant) {
      poisson(rng, kTenantRps, rep_s, &s, [&]() {
        return ReqSpec{rng.below(npay), kCurrentTenant, Path::Channel,
                       static_cast<u8>(rng.below(kConns))};
      });
    }
  }
  return in;
}

// Builds the request bytes and the expected reply hashes with the
// library's own serializer (in a VM of its own, before anything is timed),
// so the harness never depends on the wire format.
void encodeInputs(Inputs& in, const std::vector<i32>& spec_checksums) {
  VmOptions o;
  o.profile_hz = 0;
  o.sampler_period_us = 0;
  VM vm(o);
  installSystemLibrary(vm);
  Framework fw(vm);
  defineServiceApi(fw);
  JThread* t = vm.mainThread();
  JClass* int_array = vm.registry().arrayClass("[I");
  JClass* reply_cls = fw.frameworkIsolate()->loader->find("api/Reply");
  const i32 acc_slot = reply_cls->findField("acc")->slot;
  const i32 n_slot = reply_cls->findField("n")->slot;
  const i32 head_slot = reply_cls->findField("head")->slot;

  auto intArray = [&](LocalRootScope& roots, const std::vector<i32>& v) {
    Object* a = roots.add(vm.allocArrayObject(t, int_array, static_cast<i32>(v.size())));
    IJVM_CHECK(a != nullptr, "encoder allocation failed");
    if (!v.empty()) std::memcpy(a->intElems(), v.data(), v.size() * sizeof(i32));
    return a;
  };
  auto replyHash = [&](const ExpectedReply& e) {
    LocalRootScope roots(t);
    Object* r = roots.add(vm.allocObject(t, reply_cls));
    IJVM_CHECK(r != nullptr, "encoder allocation failed");
    r->fields()[acc_slot] = Value::ofInt(e.acc);
    r->fields()[n_slot] = Value::ofInt(e.n);
    r->fields()[head_slot] =
        Value::ofRef(e.head.empty() ? nullptr : intArray(roots, e.head));
    return fnv1a(serializeGraph(vm, r));
  };

  for (size_t i = 0; i < in.payloads.size(); ++i) {
    Payload& p = in.payloads[i];
    {
      LocalRootScope roots(t);
      p.wire = serializeGraph(vm, intArray(roots, p.ints));
    }
    for (Handler h : in.handlers) {
      ExpectedReply e;
      switch (h) {
        case Handler::FrontEnd: e = referenceFrontEnd(p.ints); break;
        case Handler::FrontEndRecs: e = referenceFrontEndRecs(p.ints); break;
        case Handler::Tenant: e = referenceTenant(p.ints); break;
        case Handler::Spec: e = {spec_checksums[i], p.ints[0], {}}; break;
        case Handler::Count: break;
      }
      p.expect[static_cast<size_t>(h)] = replyHash(e);
    }
  }
}

// The oracle for spec-mix: every analog on the classic interpreter in a VM
// of its own, cross-checked against the independent C++ references.
std::vector<i32> specOracle(bool* ok) {
  VmOptions o;
  o.exec_engine = ExecEngine::Classic;
  o.profile_hz = 0;
  o.sampler_period_us = 0;
  VM vm(o);
  installSystemLibrary(vm);
  ClassLoader* app = vm.registry().newLoader("oracle");
  vm.createIsolate(app, "oracle");
  const std::vector<SpecWorkload> wls = specWorkloads();
  std::vector<i32> sums;
  for (size_t a = 0; a < wls.size(); ++a) {
    sums.push_back(runSpecWorkload(vm, vm.mainThread(), app, wls[a], kSpecSizes[a]));
    if (wls[a].name == "compress" && sums.back() != referenceCompress(kSpecSizes[a])) {
      std::printf("oracle: compress disagrees with referenceCompress\n");
      *ok = false;
    }
    if (wls[a].name == "db" && sums.back() != referenceDb(kSpecSizes[a])) {
      std::printf("oracle: db disagrees with referenceDb\n");
      *ok = false;
    }
  }
  return sums;
}

// ------------------------------------------------------------- requests

// Failed: a reply that does not match the reference, an exception, or no
// reply within the grace period.
enum class Status : u8 { Pending, Ok, Refused, Failed };

// One request's record. The generator writes its fields before handing the
// request to the platform and after reading the reply; workers fill the
// stage stamps of traced requests (published by the reply's release).
struct Req {
  u64 t_intended = 0, t_send0 = 0, t_submit0 = 0, t_done = 0;
  u64 t_task0 = 0, t_recv = 0, t_decode = 0, t_handler = 0, t_ser = 0, t_reply = 0;
  u64 donated = 0, copied = 0;
  u32 wire_bytes = 0, reply_bytes = 0;
  u32 payload = 0;
  u16 service = 0;
  Path path = Path::Channel;
  u8 conn = 0;
  u8 lane = 0;
  bool traced = false;
  i32 client = -1;  // closed-loop client, -1 for open-loop traffic
  Status status = Status::Pending;
};

static_assert(std::is_trivially_destructible_v<Req>);

// Stable-address request records, allocated in chunks by the generator.
// A record is constructed when its request is created: zero-filling a
// whole chunk at once would stall the generator for milliseconds.
class ReqTable {
 public:
  u32 add() {
    const u32 id = next_;
    const u32 chunk = id >> kChunkBits;
    IJVM_CHECK(chunk < kMaxChunks, "request table full");
    if (!chunks_[chunk]) {
      chunks_[chunk].reset(static_cast<Req*>(::operator new(sizeof(Req) * kChunk)));
    }
    new (&(*this)[id]) Req();
    ++next_;
    return id;
  }
  Req& operator[](u32 id) { return chunks_[id >> kChunkBits].get()[id & (kChunk - 1)]; }
  u32 size() const { return next_; }
  void clear() {
    for (auto& c : chunks_) c.reset();
    next_ = 0;
  }

 private:
  struct Release {
    void operator()(Req* p) const { ::operator delete(p); }
  };
  static constexpr u32 kChunkBits = 16;
  static constexpr u32 kChunk = 1u << kChunkBits;
  static constexpr u32 kMaxChunks = 1024;
  std::array<std::unique_ptr<Req, Release>, kMaxChunks> chunks_;
  u32 next_ = 0;
};

std::string packHeader(u32 len, u32 id, u32 word) {
  std::string h(kHeaderBytes, '\0');
  std::memcpy(h.data(), &len, 4);
  std::memcpy(h.data() + 4, &id, 4);
  std::memcpy(h.data() + 8, &word, 4);
  return h;
}

void unpackHeader(const std::string& h, u32* len, u32* id, u32* word) {
  std::memcpy(len, h.data(), 4);
  std::memcpy(id, h.data() + 4, 4);
  std::memcpy(word, h.data() + 8, 4);
}

struct Lifecycle {
  std::vector<double> install_us, start_us, deploy_us, kill_us;
  std::vector<double> live_after_kill_mb;
  void deployed(u64 t0, u64 t1, u64 t2) {
    install_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    start_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    deploy_us.push_back(static_cast<double>(t2 - t0) / 1e3);
  }
};

// ---------------------------------------------------------------- server

thread_local u64 tls_task_start = 0;
thread_local std::string tls_hdr, tls_body;
thread_local u8 tls_lane = 0;
std::atomic<u8> g_next_lane{1};

u8 lane() {
  if (tls_lane == 0) tls_lane = g_next_lane.fetch_add(1);
  return tls_lane;
}

struct Conn {
  std::shared_ptr<ByteChannel> client, server;
  std::mutex read_mu;  // a serving task takes exactly one whole frame
  std::atomic<u64> replies_written{0};
  u64 replies_read = 0;  // generator thread only
};

// One booted platform: VM, framework, the workload's bundles, the
// dispatcher natives and the client connections.
class Server {
 public:
  Server(const WorkloadSpec& w, const Inputs& in, ReqTable& reqs)
      : w_(w), in_(in), reqs_(reqs) {
    VmOptions opts;  // shipped defaults, except the pool size
    opts.mutator_threads = kWorkers;
    vm_ = std::make_unique<VM>(opts);
    installSystemLibrary(*vm_);
    fw_ = std::make_unique<Framework>(*vm_);
    defineServiceApi(*fw_);
    defineDispatcher();
    for (Conn& c : conns_) std::tie(c.client, c.server) = ByteChannel::pair();
    service_iso_.resize(in_.services.size(), nullptr);

    if (w_.spec) {
      const std::vector<SpecWorkload> wls = specWorkloads();
      for (size_t i = 0; i < in_.services.size(); ++i) {
        deploy(makeSpecBundle(in_.services[i].name, wls[i % wls.size()]), nullptr);
      }
    } else {
      deploy(makeDictBundle(), nullptr);
      for (u16 k = 0; k < kFrontEnds; ++k) {
        deploy(makeFrontEndBundle(in_.services[k].name), nullptr);
      }
      if (w_.bulk) {
        client_ = deploy(makeClientBundle(), nullptr);
        bindClientNatives();
      }
    }
    for (size_t i = 0; i < in_.services.size(); ++i) {
      if (Bundle* b = fw_->findBundle(in_.services[i].name)) service_iso_[i] = b->isolate();
    }
    pool_ = &vm_->mutatorPool();
  }

  ~Server() {
    fw_.reset();
    vm_.reset();
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  VM& vm() { return *vm_; }
  MutatorPool& pool() { return *pool_; }
  Conn& conn(size_t k) { return conns_[k]; }

  // Generator side: frames the request (channel path) and queues the pool
  // task that serves it.
  void dispatch(u32 id, Req& r) {
    Isolate* iso = service_iso_[r.service];
    if (r.path == Path::Channel) {
      Conn& c = conns_[r.conn];
      const std::string& wire = in_.payloads[r.payload].wire;
      const std::string hdr = packHeader(static_cast<u32>(wire.size()), id,
                                         r.service | (r.traced ? kTracedBit : 0));
      c.client->write(hdr);
      c.client->write(wire);
      r.t_submit0 = now();
      const i32 k = r.conn;
      pool_->submit([this, k](JThread* jt) { runTask(jt, serve_, k); }, iso);
    } else {
      r.t_submit0 = now();
      pool_->submit(
          [this, id](JThread* jt) { runTask(jt, serve_local_, static_cast<i32>(id)); },
          iso);
    }
  }

  // Installs and starts a bundle, timing both when `lc` is given.
  Bundle* deploy(BundleDescriptor desc, Lifecycle* lc) {
    const u64 t0 = now();
    Bundle* b = fw_->install(std::move(desc));
    const u64 t1 = now();
    IJVM_CHECK(fw_->start(b), strf("bundle %s did not start", b->symbolicName().c_str()));
    const u64 t2 = now();
    if (lc != nullptr) lc->deployed(t0, t1, t2);
    return b;
  }
  void setServiceIsolate(size_t service, Isolate* iso) { service_iso_[service] = iso; }

  void kill(Bundle* b, Lifecycle* lc) {
    const u64 t0 = now();
    fw_->killBundle(b);
    lc->kill_us.push_back(static_cast<double>(now() - t0) / 1e3);
    lc->live_after_kill_mb.push_back(static_cast<double>(vm_->heap().liveBytes()) / kMiB);
  }

  std::vector<std::string> errors() {
    std::lock_guard<std::mutex> lock(errors_mu_);
    return errors_;
  }

 private:
  // bench/Dispatch.serve(conn) and serveLocal(id): natives of the
  // framework loader, so the serving code runs inside a guest call. The
  // pool worker is then a counted mutator for the whole request and no
  // collection can run between allocating a graph and rooting it.
  void defineDispatcher() {
    ClassBuilder cb("bench/Dispatch");
    cb.nativeMethod("serve", "(I)V", ACC_STATIC);
    cb.nativeMethod("serveLocal", "(I)V", ACC_STATIC);
    JClass* cls = fw_->frameworkIsolate()->loader->define(cb.build());
    serve_ = cls->findDeclared("serve", "(I)V");
    serve_->native = [this](NativeCtx& ctx) {
      serveChannel(&ctx.thread, static_cast<size_t>(ctx.args.at(0).asInt()));
      return Value();
    };
    serve_local_ = cls->findDeclared("serveLocal", "(I)V");
    serve_local_->native = [this](NativeCtx& ctx) {
      serveLocal(&ctx.thread, static_cast<u32>(ctx.args.at(0).asInt()));
      return Value();
    };
  }

  // client/Gen.ints(i) and recs(i): payload #i as a fresh message owned by
  // the client isolate (the natives run there, so it is charged and
  // donation-eligible like any object the client creates).
  void bindClientNatives() {
    JClass* gen = client_->loader()->find("client/Gen");
    JClass* int_array = vm_->registry().arrayClass("[I");
    JClass* rec_array = vm_->registry().resolve(client_->loader(), "[Lapi/Rec;");
    JClass* rec = fw_->frameworkIsolate()->loader->find("api/Rec");
    std::array<i32, kRecInts> slots{};
    for (size_t f = 0; f < kRecInts; ++f) slots[f] = rec->findField(kRecFields[f])->slot;
    gen->findDeclared("ints", "(I)[I")->native = [this, int_array](NativeCtx& ctx) {
      const std::vector<i32>& v = in_.payloads[static_cast<size_t>(ctx.args.at(0).asInt())].ints;
      Object* a = vm_->allocArrayObject(&ctx.thread, int_array, static_cast<i32>(v.size()));
      if (a == nullptr) return Value();
      std::memcpy(a->intElems(), v.data(), v.size() * sizeof(i32));
      return Value::ofRef(a);
    };
    gen->findDeclared("recs", "(I)[Lapi/Rec;")->native =
        [this, rec_array, rec, slots](NativeCtx& ctx) {
          const std::vector<i32>& v =
              in_.payloads[static_cast<size_t>(ctx.args.at(0).asInt())].ints;
          const i32 n = static_cast<i32>(std::min(v.size() / kRecInts, kRecsPerMessage));
          LocalRootScope roots(&ctx.thread);
          Object* arr = roots.add(vm_->allocArrayObject(&ctx.thread, rec_array, n));
          if (arr == nullptr) return Value();
          for (i32 i = 0; i < n; ++i) {
            Object* o = vm_->allocObject(&ctx.thread, rec);
            if (o == nullptr) return Value();
            for (size_t f = 0; f < kRecInts; ++f) {
              o->fields()[slots[f]] = Value::ofInt(v[kRecInts * static_cast<size_t>(i) + f]);
            }
            arr->refElems()[i] = o;
          }
          return Value::ofRef(arr);
        };
  }

  void runTask(JThread* jt, JMethod* m, i32 arg) {
    tls_task_start = now();
    vm_->invoke(jt, m, {Value::ofInt(arg)});
    vm_->clearPending(jt);
  }

  void serveChannel(JThread* t, size_t k) {
    Conn& c = conns_[k];
    u32 len = 0, id = 0, word = 0;
    {
      std::lock_guard<std::mutex> lock(c.read_mu);
      c.server->readFully(&tls_hdr, kHeaderBytes);
      unpackHeader(tls_hdr, &len, &id, &word);
      c.server->readFully(&tls_body, len);
    }
    Req& r = reqs_[id];
    const bool traced = (word & kTracedBit) != 0;
    if (traced) {
      r.t_task0 = tls_task_start;
      r.t_recv = now();
      r.lane = lane();
    }
    LocalRootScope roots(t);
    Object* msg = roots.add(deserializeGraph(*vm_, t, tls_body));
    if (traced) r.t_decode = now();
    respond(t, c, id, r, static_cast<u16>(word & 0xffff), msg, false, traced, roots);
  }

  void serveLocal(JThread* t, u32 id) {
    Req& r = reqs_[id];
    const bool traced = r.traced;
    if (traced) {
      r.t_task0 = tls_task_start;
      r.lane = lane();
    }
    const bool recs = r.path == Path::LocalRecs;
    LocalRootScope roots(t);
    Value made = vm_->callStaticIn(t, client_->loader(), "client/Gen",
                                   recs ? "recs" : "ints",
                                   recs ? "(I)[Lapi/Rec;" : "(I)[I",
                                   {Value::ofInt(static_cast<i32>(r.payload))});
    Object* src = roots.add(made.asRef());
    if (traced) r.t_recv = now();
    Object* msg = nullptr;
    if (t->pending_exception == nullptr) {
      TransferStats st;
      msg = roots.add(transferGraph(*vm_, t, client_->isolate(), src, &st));
      if (traced) {
        r.donated = st.bytes_donated;
        r.copied = st.bytes_copied;
      }
    }
    if (traced) r.t_decode = now();
    respond(t, conns_[r.conn], id, r, r.service, msg, recs, traced, roots);
  }

  void respond(JThread* t, Conn& c, u32 id, Req& r, u16 service, Object* msg,
               bool recs, bool traced, LocalRootScope& roots) {
    u32 status = kReplyOk;
    std::string body;
    if (t->pending_exception != nullptr) {
      status = kReplyError;
      noteError(t);
    } else if (Object* target = fw_->getService(in_.services[service].name);
               target == nullptr) {
      status = kReplyRefused;  // not deployed yet, or killed
    } else {
      const std::vector<Value> args = {Value::ofInt(static_cast<i32>(id)), Value::ofRef(msg)};
      Value v = recs ? vm_->callVirtual(t, target, "handleRecs", kHandleRecsDesc, args)
                     : vm_->callVirtual(t, target, "handle", kHandleDesc, args);
      if (traced) r.t_handler = now();
      if (t->pending_exception != nullptr) {
        Object* exc = t->pending_exception;
        if (exc->cls->name == kStoppedIsolateException) {
          status = kReplyRefused;  // the tenant was killed under the request
        } else {
          status = kReplyError;
          noteError(t);
        }
      } else {
        body = serializeGraph(*vm_, roots.add(v.asRef()));
        if (traced) r.t_ser = now();
      }
    }
    vm_->clearPending(t);
    std::string parts[2] = {packHeader(static_cast<u32>(body.size()), id, status),
                            std::move(body)};
    c.server->writev(parts, 2);
    if (traced) r.t_reply = now();
    c.replies_written.fetch_add(1, std::memory_order_release);
  }

  void noteError(JThread* t) {
    std::lock_guard<std::mutex> lock(errors_mu_);
    if (errors_.size() < 8) errors_.push_back(vm_->pendingMessage(t));
  }

  const WorkloadSpec& w_;
  const Inputs& in_;
  ReqTable& reqs_;
  std::array<Conn, kConns> conns_;
  std::vector<Isolate*> service_iso_;
  Bundle* client_ = nullptr;
  JMethod* serve_ = nullptr;
  JMethod* serve_local_ = nullptr;
  std::mutex errors_mu_;
  std::vector<std::string> errors_;
  MutatorPool* pool_ = nullptr;
  std::unique_ptr<VM> vm_;
  std::unique_ptr<Framework> fw_;
};

// ------------------------------------------------------------- generator

struct PhaseCfg {
  u64 duration_ns = 0;  // send window; 0 = until `count` requests were sent
  u64 count = 0;
  const OpenStream* open = nullptr;
  u32 clients = 0;
  bool alternate_trace = false;  // 0.5 s blocks, untraced first
};

struct PhaseResult {
  u32 first_id = 0, end_id = 0;
  u64 t_begin = 0, t_end = 0;  // send window
  u64 traced_ns = 0;           // time with VM tracing on
  u64 max_inflight = 0;
  u64 backlog_at_end = 0;      // requests outstanding when sending stopped
};

// The single load generator. Sends on schedule (open loop) or whenever a
// client's previous reply arrived (closed loop), and reads every reply.
class LoadGen {
 public:
  LoadGen(Server& s, ReqTable& reqs, const Inputs& in)
      : server_(s), reqs_(reqs), in_(in) {}

  // Churn: tenant traffic over [origin, ...) to whichever tenant is live.
  void startTenantStream(u64 origin, const OpenStream* stream,
                         const std::atomic<int>* live) {
    tenant_origin_ = origin;
    tenant_ = stream;
    live_tenant_ = live;
  }

  PhaseResult run(const PhaseCfg& cfg) {
    pinGenerator();
    PhaseResult res;
    res.first_id = reqs_.size();
    phase_first_ = res.first_id;
    res.t_begin = now();
    const u64 t_stop = res.t_begin + cfg.duration_ns;
    std::vector<size_t> cursor(cfg.clients, 0);
    ready_.clear();
    for (u32 c = 0; c < cfg.clients; ++c) ready_.push_back(static_cast<i32>(c));
    size_t next_open = 0;
    u64 sent = 0;
    bool traced = false;
    u64 block_start = res.t_begin;
    u64 next_toggle = res.t_begin + kTraceBlockNs;

    for (;;) {
      const u64 t = now();
      if (cfg.alternate_trace && t >= next_toggle) {
        if (traced) res.traced_ns += t - block_start;
        traced = !traced;
        obs::setTraceEnabled(traced);
        block_start = t;
        next_toggle += kTraceBlockNs;
      }
      if (cfg.duration_ns > 0 ? t >= t_stop : sent >= cfg.count) break;
      if (cfg.open != nullptr && next_open < cfg.open->at_ns.size() &&
          t >= res.t_begin + cfg.open->at_ns[next_open]) {
        send(cfg.open->specs[next_open], res.t_begin + cfg.open->at_ns[next_open], -1,
             traced, &res);
        ++next_open;
        ++sent;
      }
      if (tenant_ != nullptr && next_tenant_ < tenant_->at_ns.size() &&
          t >= tenant_origin_ + tenant_->at_ns[next_tenant_]) {
        const int live = live_tenant_->load(std::memory_order_acquire);
        if (live >= 0) {
          ReqSpec s = tenant_->specs[next_tenant_];
          s.service = static_cast<u16>(kFrontEnds + live);
          send(s, tenant_origin_ + tenant_->at_ns[next_tenant_], -1, traced,
               &res);
        }
        ++next_tenant_;
      }
      while (!ready_.empty() && (cfg.duration_ns > 0 || sent < cfg.count)) {
        const i32 c = ready_.back();
        ready_.pop_back();
        const std::vector<ReqSpec>& seq = in_.clients[static_cast<size_t>(c)];
        const ReqSpec& s = seq[cursor[static_cast<size_t>(c)]++ % seq.size()];
        send(s, now(), c, traced, &res);
        ++sent;
      }
      poll();
    }
    res.t_end = now();
    if (traced) {
      res.traced_ns += res.t_end - block_start;
      obs::setTraceEnabled(false);
    }
    res.backlog_at_end = outstanding_;
    while (outstanding_ > 0 && now() < res.t_end + kGraceNs) poll();
    res.end_id = reqs_.size();
    if (outstanding_ > 0) {
      for (u32 id = res.first_id; id < res.end_id; ++id) {
        if (reqs_[id].status == Status::Pending) reqs_[id].status = Status::Failed;
      }
      outstanding_ = 0;
    }
    return res;
  }

 private:
  void send(const ReqSpec& s, u64 intended, i32 client, bool traced, PhaseResult* res) {
    const u32 id = reqs_.add();
    Req& r = reqs_[id];
    r.t_intended = intended;
    r.payload = s.payload;
    r.service = s.service;
    r.path = s.path;
    r.conn = s.conn;
    r.client = client;
    r.traced = traced;
    r.wire_bytes = s.path == Path::Channel
                       ? static_cast<u32>(in_.payloads[s.payload].wire.size() + kHeaderBytes)
                       : 0;
    r.t_send0 = now();
    server_.dispatch(id, r);
    ++outstanding_;
    res->max_inflight = std::max(res->max_inflight, outstanding_);
  }

  void poll() {
    for (size_t k = 0; k < kConns; ++k) {
      Conn& c = server_.conn(k);
      const u64 written = c.replies_written.load(std::memory_order_acquire);
      while (c.replies_read < written) {
        readReply(c);
        ++c.replies_read;
      }
    }
  }

  void readReply(Conn& c) {
    u32 len = 0, id = 0, status = 0;
    c.client->readFully(&hdr_, kHeaderBytes);
    unpackHeader(hdr_, &len, &id, &status);
    c.client->readFully(&body_, len);
    const u64 t = now();
    if (id < phase_first_) return;  // already given up on and counted failed
    Req& r = reqs_[id];
    r.t_done = t;
    r.reply_bytes = static_cast<u32>(len + kHeaderBytes);
    --outstanding_;
    if (status == kReplyOk) {
      Handler h = in_.services[r.service].handler;
      if (r.path == Path::LocalRecs) h = Handler::FrontEndRecs;
      const bool match = fnv1a(body_) == in_.payloads[r.payload].expect[static_cast<size_t>(h)];
      r.status = match ? Status::Ok : Status::Failed;
    } else {
      r.status = status == kReplyRefused ? Status::Refused : Status::Failed;
    }
    if (r.client >= 0) ready_.push_back(r.client);
  }

  Server& server_;
  ReqTable& reqs_;
  const Inputs& in_;
  std::vector<i32> ready_;
  std::string hdr_, body_;
  u64 outstanding_ = 0;
  u32 phase_first_ = 0;
  u64 tenant_origin_ = 0;
  size_t next_tenant_ = 0;
  const OpenStream* tenant_ = nullptr;
  const std::atomic<int>* live_tenant_ = nullptr;
};

PhaseResult runPhase(LoadGen& gen, const PhaseCfg& cfg) {
  PhaseResult res;
  std::thread t([&] { res = gen.run(cfg); });
  t.join();
  return res;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double median(std::vector<double> v) { return Summary::of(std::move(v)).p50; }

// Jiffies the hypervisor took from this machine's CPUs ("steal"), and all
// jiffies, from the aggregate line of /proc/stat.
std::pair<u64, u64> stealJiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  u64 v[8] = {};
  f >> cpu;
  for (u64& x : v) f >> x;
  u64 total = 0;
  for (u64 x : v) total += x;
  return {v[7], total};
}

double us(u64 a, u64 b) { return b > a ? static_cast<double>(b - a) / 1e3 : 0.0; }

// A window of consecutive requests: their latency and how late the
// generator sent them.
struct Window {
  Summary latency;
  double late_p99 = 0;
};

// Consecutive windows of at least kWindowSamples requests (one window when
// there are fewer, as in smoke runs). `lat` and `late` are parallel.
std::vector<Window> windows(const std::vector<double>& lat, const std::vector<double>& late) {
  const size_t n = std::max<size_t>(1, lat.size() / kWindowSamples);
  std::vector<Window> out;
  for (size_t w = 0; w < n; ++w) {
    const auto b = static_cast<std::ptrdiff_t>(lat.size() * w / n);
    const auto e = static_cast<std::ptrdiff_t>(lat.size() * (w + 1) / n);
    out.push_back({Summary::of({lat.begin() + b, lat.begin() + e}),
                   Summary::of({late.begin() + b, late.begin() + e}).p99});
  }
  return out;
}

// VM-wide counters read around a phase.
struct Counters {
  u64 calls = 0, steals = 0, tasks = 0, allocated = 0, recycled = 0, objects = 0, gcs = 0;
  static Counters read(Server& s) {
    Counters c;
    c.calls = s.vm().interIsolateCalls();
    c.steals = s.pool().steals();
    c.tasks = s.pool().tasksCompleted();
    c.allocated = s.vm().heap().totalAllocatedBytes();
    c.recycled = s.vm().heap().recycledAllocs();
    c.gcs = s.vm().gcCount();
    for (const IsolateReport& r : s.vm().reportAll()) c.objects += r.objects_allocated;
    return c;
  }
};

struct RunOptions {
  const WorkloadSpec* w = nullptr;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
};

void writeBenchTrace(const std::string& path, ReqTable& reqs, const PhaseResult& ph) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  auto span = [&](const char* name, u64 a, u64 b, u32 tid, u32 id) {
    if (a == 0 || b < a) return;
    std::fprintf(f, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%u}}",
                 first ? "" : ",\n", name, tid, static_cast<double>(a) / 1e3,
                 static_cast<double>(b - a) / 1e3, id);
    first = false;
  };
  size_t written = 0;
  for (u32 id = ph.first_id; id < ph.end_id && written < kTraceFileRequests; ++id) {
    Req& r = reqs[id];
    if (!r.traced || r.status != Status::Ok) continue;
    ++written;
    const u32 w = 100u + r.lane;
    span("req", r.t_intended, r.t_done, 1, id);
    span("gen.send", r.t_send0, r.t_submit0, 2, id);
    span("pool.queue", r.t_submit0, r.t_task0, w, id);
    span(r.path == Path::Channel ? "chan.recv" : "client.make", r.t_task0, r.t_recv, w, id);
    span(r.path == Path::Channel ? "comm.deserialize" : "comm.transfer", r.t_recv,
         r.t_decode, w, id);
    span("exec.handler", r.t_decode, r.t_handler, w, id);
    span("comm.serialize", r.t_handler, r.t_ser, w, id);
    span("chan.reply", r.t_ser, r.t_reply, w, id);
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

// What one measured platform left behind besides its requests.
struct RepResult {
  PhaseResult nominal, saturation;
  Counters before, after;  // around the latency phase
  double live_mb = 0, jit_compiled = 0, payoff_demotions = 0, code_kb = 0;
};

// A metric's samples as measured and scaled to the reference host speed.
struct Scaled {
  std::vector<double> raw, norm;
  void add(double v, double scale) {
    raw.push_back(v);
    norm.push_back(v * scale);
  }
};

// What the report needs from the requests, gathered platform by platform:
// a platform's request records are freed before the next one boots, so
// the harness's own memory does not grow with throughput into peak_rss_mb.
struct Samples {
  u64 attempted = 0, failed = 0, refused = 0;
  // Latency phase: valid windows, then every completed request pooled.
  Scaled p50s, p99s;
  size_t windows = 0, bound_windows = 0;
  std::vector<double> lat, late, lat_traced, lat_untraced;
  std::vector<double> completion, backlog;  // per platform
  // Throughput: completions per bucket, and each platform's p99.
  Scaled rps;
  std::vector<double> sat99s;
  // Traced runs: stage durations of traced requests.
  std::vector<double> queue, send, recv, deser, transfer, handler, ser, reply, task;
  std::map<u16, std::vector<double>> jobs_ms;  // spec analog -> handler time
  double bytes = 0, donated = 0, moved = 0, e2e_us = 0, stages_us = 0;
  size_t traced_ok = 0;
};

class Run {
 public:
  explicit Run(const RunOptions& o) : o_(o), w_(*o.w) {}

  int execute() {
    steal_at_start_ = stealJiffies();
    const double rep_s = o_.seconds / kReps;
    in_ = makeInputs(w_, o_.seed, o_.trace ? rep_s : rep_s * kNominalShare, rep_s);
    std::vector<i32> spec_sums;
    if (w_.spec) spec_sums = specOracle(&oracle_ok_);
    encodeInputs(in_, spec_sums);

    double kernel_before = kernelNs();
    for (int rep = 0; rep < kReps; ++rep) {
      double setup_s = 0;
      {
        const u64 t0 = now();
        Server s(w_, in_, reqs_);
        LoadGen warm(s, reqs_, in_);
        PhaseCfg cfg;
        cfg.count = w_.warmup;
        cfg.clients = w_.window;
        runPhase(warm, cfg);
        setup_s = static_cast<double>(now() - t0) / 1e9;
        s.vm().collectGarbage(s.vm().mainThread(), nullptr);

        reps_.push_back(measure(s, rep, static_cast<u64>(rep_s * 1e9)));
        if (o_.trace && rep == kReps - 1 && !o_.out_dir.empty()) writeTraces();
        if (!w_.churn) probeLifecycle(s);
        for (const std::string& e : s.errors()) std::printf("error: %s\n", e.c_str());
      }  // the VM is gone: no worker can still touch a request record
      const double kernel_after = kernelNs();
      const double slowdown = (kernel_before + kernel_after) / 2 / kReferenceKernelNs;
      kernel_before = kernel_after;
      slowdowns_.push_back(slowdown);
      setup_s_.add(setup_s, 1 / slowdown);
      absorb(rep, reps_.back(), slowdown);
      reqs_.clear();
    }
    return report();
  }

 private:
  RepResult measure(Server& s, int rep, u64 total_ns) {
    LoadGen gen(s, reqs_, in_);
    std::atomic<int> live{-1};
    // spec-mix is closed loop throughout; its latency phase is its throughput.
    const u64 nominal_ns = o_.trace || w_.spec ? total_ns
                                                : static_cast<u64>(total_ns * kNominalShare);
    RepResult rr;
    rr.before = Counters::read(s);
    s.vm().profiler()->reset();

    std::thread generator([&] {
      if (w_.churn) gen.startTenantStream(now(), &in_.tenant[rep], &live);
      PhaseCfg cfg;
      cfg.alternate_trace = o_.trace;
      cfg.duration_ns = nominal_ns;
      if (w_.spec) {
        cfg.clients = w_.window;
      } else {
        cfg.open = &in_.nominal[rep];
      }
      rr.nominal = gen.run(cfg);
      rr.after = Counters::read(s);
      if (o_.trace) {
        const std::vector<obs::ProfileSample> smp = s.vm().profiler()->snapshot();
        profile_.insert(profile_.end(), smp.begin(), smp.end());
      } else if (!w_.spec) {
        PhaseCfg sat;
        sat.duration_ns = total_ns - nominal_ns;
        sat.clients = w_.window;
        rr.saturation = gen.run(sat);
      }
    });
    if (w_.churn) churnTimeline(s, now(), total_ns, &live);
    generator.join();

    s.vm().collectGarbage(s.vm().mainThread(), nullptr);
    rr.live_mb = static_cast<double>(s.vm().heap().liveBytes()) / kMiB;
    for (const IsolateReport& r : s.vm().reportAll()) {
      rr.jit_compiled += static_cast<double>(r.jit_methods_compiled);
      rr.payoff_demotions += static_cast<double>(r.jit_payoff_demotions);
      rr.code_kb += static_cast<double>(r.jit_code_bytes) / 1024.0;
    }
    return rr;
  }

  void probeLifecycle(Server& s) {
    for (int i = 0; i < kProbes; ++i) {
      BundleDescriptor desc = makeTenantBundle(strf("probe%d", i));
      s.kill(s.deploy(std::move(desc), &life_), &life_);
    }
  }

  void writeTraces() {
    const std::string base = strf("%s/%s-seed%llu", o_.out_dir.c_str(), w_.name,
                                  static_cast<unsigned long long>(o_.seed));
    writeBenchTrace(base + ".bench.trace.json", reqs_, reps_.back().nominal);
    obs::dumpChromeTrace(base + ".vm.trace.json");
    std::printf("traces: %s.{bench,vm}.trace.json\n", base.c_str());
  }

  // Main (admin) thread during churn: a fresh tenant every cycle, live for
  // most of it, then killed while traffic to it is still in flight.
  void churnTimeline(Server& s, u64 origin, u64 total_ns, std::atomic<int>* live) {
    std::vector<BundleDescriptor> descs;
    for (int c = 0; c < kTenantCycles; ++c) {
      descs.push_back(makeTenantBundle(in_.services[kFrontEnds + c].name));
    }
    auto sleepUntil = [](u64 t) {
      while (now() < t) std::this_thread::sleep_for(std::chrono::microseconds(200));
    };
    const u64 cycle = total_ns / kTenantCycles;
    for (int c = 0; c < kTenantCycles; ++c) {
      const u64 start = origin + static_cast<u64>(c) * cycle;
      sleepUntil(start + cycle / 20);
      Bundle* b = s.deploy(std::move(descs[static_cast<size_t>(c)]), &life_);
      s.setServiceIsolate(kFrontEnds + static_cast<size_t>(c), b->isolate());
      live->store(c, std::memory_order_release);
      sleepUntil(start + static_cast<u64>(static_cast<double>(cycle) * kTenantLiveShare));
      live->store(-1, std::memory_order_release);
      s.kill(b, &life_);
    }
  }

  bool isVictim(const Req& r) const { return w_.spec || r.service < kFrontEnds; }

  // Folds one platform's requests into samples_; `slowdown` is the host
  // speed around it (see kernelNs).
  void absorb(int rep, const RepResult& rr, double slowdown) {
    Samples& s = samples_;
    for (u32 id = 0; id < reqs_.size(); ++id) {
      const Req& r = reqs_[id];
      ++s.attempted;
      if (r.status == Status::Refused && !isVictim(r)) {
        ++s.refused;
      } else if (r.status != Status::Ok) {
        ++s.failed;
      }
    }

    // Latency phase, in send order. A window whose generator ran late by
    // more than a tenth of the SLO at p99 is generator-bound: it describes
    // the host, so it is left out.
    std::vector<double> lat, late;
    u64 sent = 0;
    for (u32 id = rr.nominal.first_id; id < rr.nominal.end_id; ++id) {
      const Req& r = reqs_[id];
      if (!isVictim(r)) continue;
      ++sent;
      if (r.status != Status::Ok) continue;
      lat.push_back(us(r.t_intended, r.t_done));
      late.push_back(us(r.t_intended, r.t_send0));
      (r.traced ? s.lat_traced : s.lat_untraced).push_back(lat.back());
      if (r.traced) addStages(r);
    }
    for (const Window& win : windows(lat, late)) {
      ++s.windows;
      if (w_.slo_us > 0 && win.late_p99 > 0.1 * w_.slo_us) {
        ++s.bound_windows;
        continue;
      }
      s.p50s.add(win.latency.p50, 1 / slowdown);
      s.p99s.add(win.latency.p99, 1 / slowdown);
    }
    s.completion.push_back(sent > 0 ? static_cast<double>(lat.size()) / static_cast<double>(sent)
                                    : 1);
    s.backlog.push_back(static_cast<double>(rr.nominal.backlog_at_end));
    std::printf("%s platform %d latency: %s\n", w_.name, rep,
                Summary::of(lat).format("us").c_str());
    s.lat.insert(s.lat.end(), lat.begin(), lat.end());
    s.late.insert(s.late.end(), late.begin(), late.end());

    // Throughput: closed-loop completions per bucket.
    if (o_.trace && !w_.spec) return;
    const PhaseResult& tput = w_.spec ? rr.nominal : rr.saturation;
    std::vector<double> sat;
    std::vector<u64> buckets((tput.t_end - tput.t_begin) / kRateBucketNs);
    u64 done = 0;
    for (u32 id = tput.first_id; id < tput.end_id; ++id) {
      const Req& r = reqs_[id];
      if (r.client < 0 || r.status != Status::Ok) continue;
      sat.push_back(us(r.t_intended, r.t_done));
      const u64 b = (r.t_done - tput.t_begin) / kRateBucketNs;
      if (r.t_done >= tput.t_begin && b < buckets.size()) ++buckets[b];
      if (r.t_done <= tput.t_end) ++done;
    }
    const double phase_s = static_cast<double>(tput.t_end - tput.t_begin) / 1e9;
    for (u64 c : buckets) s.rps.add(static_cast<double>(c) / (kRateBucketNs / 1e9), slowdown);
    if (buckets.empty()) s.rps.add(static_cast<double>(done) / phase_s, slowdown);
    const Summary sat_s = Summary::of(sat);
    s.sat99s.push_back(sat_s.p99);
    std::printf("%s platform %d closed loop (window %u): %.1f req/s, latency %s\n", w_.name,
                rep, w_.window, static_cast<double>(done) / phase_s,
                sat_s.format("us").c_str());
  }

  // Stage durations of one traced, completed request. The stages tile
  // [intended, reply written]; the rest of the end-to-end time is the
  // generator picking the reply up.
  void addStages(const Req& r) {
    Samples& s = samples_;
    ++s.traced_ok;
    s.queue.push_back(us(r.t_submit0, r.t_task0));
    (r.path == Path::Channel ? s.deser : s.transfer).push_back(us(r.t_recv, r.t_decode));
    if (r.path == Path::Channel) {
      s.send.push_back(us(r.t_send0, r.t_submit0));
      s.recv.push_back(us(r.t_task0, r.t_recv));
    }
    s.handler.push_back(us(r.t_decode, r.t_handler));
    s.ser.push_back(us(r.t_handler, r.t_ser));
    s.reply.push_back(us(r.t_ser, r.t_reply));
    s.task.push_back(us(r.t_task0, r.t_reply));
    if (w_.spec) {
      s.jobs_ms[static_cast<u16>(r.service % kSpecSizes.size())].push_back(
          us(r.t_decode, r.t_handler) / 1e3);
    }
    s.bytes += r.wire_bytes + r.reply_bytes + static_cast<double>(r.donated + r.copied);
    s.donated += static_cast<double>(r.donated);
    s.moved += static_cast<double>(r.donated + r.copied);
    s.e2e_us += us(r.t_intended, r.t_done);
    s.stages_us += us(r.t_intended, r.t_reply);
  }

  int report() {
    Samples& s = samples_;
    if (!oracle_ok_) ++s.failed;
    const bool correct = s.failed == 0;
    std::printf("%s requests: attempted=%llu failed=%llu refused=%llu (tenants killed "
                "under the request)\n",
                w_.name, static_cast<unsigned long long>(s.attempted),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.refused));
    std::printf("%s latency, all platforms: %s\n", w_.name,
                Summary::of(s.lat).format("us").c_str());
    const Summary late = Summary::of(s.late);
    std::printf("%s generator lateness: %s; generator_bound windows: %zu of %zu\n",
                w_.name, late.format("us").c_str(), s.bound_windows, s.windows);

    // Every metric is the median window over all platforms: a platform that
    // loses its CPU to the host for tens of milliseconds then spoils a few
    // windows, not the run. The other gates judge the median platform.
    std::string invalid;
    if (s.p50s.raw.empty()) invalid = "generator_bound in every window";
    if (w_.slo_us > 0) {
      if (median(s.completion) < 0.999) invalid = "latency phase completed under 99.9%";
      if (median(s.backlog) > w_.nominal_rps * w_.slo_us / 1e6) {
        invalid = "latency phase backlog grew past the SLO";
      }
      if (!s.sat99s.empty() && median(s.sat99s) > w_.slo_us) {
        invalid = "closed-loop p99 above the SLO";
      }
    }

    std::printf("%s host slowdown per platform (kernel time / reference):", w_.name);
    for (double x : slowdowns_) std::printf(" %.3f", x);
    std::printf("\n");
    std::vector<Metric> metrics;
    if (!o_.trace) {
      std::printf("%s unscaled: setup_s %.6g s, p50_us %.6g us, p99_us %.6g us, "
                  "max_rps %.6g 1/s\n",
                  w_.name, median(setup_s_.raw), median(s.p50s.raw), median(s.p99s.raw),
                  median(s.rps.raw));
      metrics = {
          {"setup_s", median(setup_s_.norm), "s"},
          {"p50_us", median(s.p50s.norm), "us"},
          {"p99_us", median(s.p99s.norm), "us"},
          {"max_rps", median(s.rps.norm), "1/s"},
          {"deploy_us", median(life_.deploy_us), "us"},
          {"peak_rss_mb", peakRssMb(), "MiB"},
      };
    } else {
      metrics = layerMetrics(late, &invalid);
    }

    for (const Metric& m : metrics) {
      std::printf("%s %s %.6g %s\n", w_.name, m.name.c_str(), m.value, m.unit.c_str());
    }
    // Time the host took from this machine's CPUs: runs on a contended host
    // read slower across the board.
    const auto [steal, jiffies] = stealJiffies();
    const double steal_pct =
        jiffies > steal_at_start_.second
            ? static_cast<double>(steal - steal_at_start_.first) /
                  static_cast<double>(jiffies - steal_at_start_.second) * 100
            : 0;
    std::printf("meta: git=%s build=%s cores=%u seed=%llu seconds=%g trace=%d "
                "platforms=%d vm_options=mutator_threads=%u host_steal=%.2f%%\n",
                o_.git_sha.c_str(), IJVM_BUILD_TYPE, std::thread::hardware_concurrency(),
                static_cast<unsigned long long>(o_.seed), o_.seconds, o_.trace ? 1 : 0,
                kReps, kWorkers, steal_pct);
    if (!invalid.empty()) {
      std::printf("invalid run: %s\n", invalid.c_str());
      return 3;
    }
    const std::string json = strf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                                  "\"metrics\": %s}",
                                  correct ? "true" : "false",
                                  static_cast<unsigned long long>(s.attempted),
                                  static_cast<unsigned long long>(s.failed),
                                  metricsJson(metrics).c_str());
    writeResultFile(json);
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
  }

  static std::string metricsJson(const std::vector<Metric>& metrics) {
    std::string json = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
      json += strf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                   metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    }
    return json + "}";
  }

  std::vector<Metric> layerMetrics(const Summary& late, std::string* invalid) {
    const Samples& s = samples_;
    const double reconcile = s.e2e_us > 0 ? (s.e2e_us - s.stages_us) / s.e2e_us * 100 : 0;
    if ((std::strcmp(w_.name, "svc-small") == 0 || std::strcmp(w_.name, "svc-bulk") == 0) &&
        std::fabs(reconcile) > kReconcileLimitPct) {
      *invalid = strf("stages reconcile to %.1f%% of the end-to-end mean", reconcile);
    }

    double phase_s = 0, traced_s = 0, completed = 0;
    Counters d;  // summed over platforms
    std::vector<double> live_mb, jit_compiled, payoff_demotions, code_kb;
    for (const RepResult& rr : reps_) {
      phase_s += static_cast<double>(rr.nominal.t_end - rr.nominal.t_begin) / 1e9;
      traced_s += static_cast<double>(rr.nominal.traced_ns) / 1e9;
      completed += static_cast<double>(rr.nominal.end_id - rr.nominal.first_id);
      d.calls += rr.after.calls - rr.before.calls;
      d.steals += rr.after.steals - rr.before.steals;
      d.tasks += rr.after.tasks - rr.before.tasks;
      d.allocated += rr.after.allocated - rr.before.allocated;
      d.recycled += rr.after.recycled - rr.before.recycled;
      d.objects += rr.after.objects - rr.before.objects;
      d.gcs += rr.after.gcs - rr.before.gcs;
      live_mb.push_back(rr.live_mb);
      jit_compiled.push_back(rr.jit_compiled);
      payoff_demotions.push_back(rr.payoff_demotions);
      code_kb.push_back(rr.code_kb);
    }

    std::array<double, static_cast<size_t>(obs::SampleTier::Count)> tiers{};
    double mutator_samples = 0;
    for (const obs::ProfileSample& smp : profile_) {
      if (smp.kind != obs::SampleThreadKind::Mutator || smp.tiers.empty()) continue;
      tiers[static_cast<size_t>(smp.tiers.back())] += 1;
      mutator_samples += 1;
    }
    auto tierShare = [&](obs::SampleTier t) {
      return mutator_samples > 0 ? tiers[static_cast<size_t>(t)] / mutator_samples * 100 : 0;
    };
    auto pct = [](u64 part, u64 whole) {
      return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) * 100 : 0;
    };
    const obs::HistSnapshot gc = obs::latencySnapshot(obs::Lat::GcPause);
    const obs::HistSnapshot tts = obs::latencySnapshot(obs::Lat::SafepointTimeToStop);
    const double p50_traced = Summary::of(s.lat_traced).p50;
    const double p50_untraced = Summary::of(s.lat_untraced).p50;
    const Summary deser = Summary::of(s.deser), handler = Summary::of(s.handler),
                  queue = Summary::of(s.queue);
    const std::vector<SpecWorkload> wls = specWorkloads();

    std::vector<Metric> m = {
        {"runtime.pool.queue_wait_us.p50", queue.p50, "us"},
        {"runtime.pool.queue_wait_us.p99", queue.p99, "us"},
        {"runtime.pool.busy_pct",
         traced_s > 0 ? mean(s.task) * static_cast<double>(s.task.size()) / 1e6 /
                            (kWorkers * traced_s) * 100
                      : 0,
         "%"},
        {"runtime.pool.steal_pct", pct(d.steals, d.tasks), "%"},
        {"runtime.calls_per_req",
         completed > 0 ? static_cast<double>(d.calls) / completed : 0, "count"},
        {"runtime.tts_us.p99", static_cast<double>(tts.p99_ns) / 1e3, "us"},
        {"stdlib.send_us.p50", Summary::of(s.send).p50, "us"},
        {"stdlib.recv_us.p50", Summary::of(s.recv).p50, "us"},
        {"stdlib.reply_us.p50", Summary::of(s.reply).p50, "us"},
        {"comm.deserialize_us.p50", deser.p50, "us"},
        {"comm.deserialize_us.p99", deser.p99, "us"},
        {"comm.serialize_us.p50", Summary::of(s.ser).p50, "us"},
        {"comm.transfer_us.p50", Summary::of(s.transfer).p50, "us"},
        {"comm.bytes_per_req", s.traced_ok > 0 ? s.bytes / static_cast<double>(s.traced_ok) : 0,
         "B"},
        {"comm.donated_pct", s.moved > 0 ? s.donated / s.moved * 100 : 0, "%"},
        {"exec.handler_us.p50", handler.p50, "us"},
        {"exec.handler_us.p99", handler.p99, "us"},
    };
    for (size_t i = 0; i < wls.size(); ++i) {
      auto it = s.jobs_ms.find(static_cast<u16>(i));
      m.push_back({"exec.job_ms." + wls[i].name,
                   it == s.jobs_ms.end() ? 0 : median(it->second), "ms"});
    }
    const std::vector<Metric> rest = {
        {"exec.tier_share.classic", tierShare(obs::SampleTier::Classic), "%"},
        {"exec.tier_share.quick", tierShare(obs::SampleTier::Quickened), "%"},
        {"exec.tier_share.fused", tierShare(obs::SampleTier::Fused), "%"},
        {"exec.tier_share.jit", tierShare(obs::SampleTier::Jit), "%"},
        {"exec.tier_share.osr", tierShare(obs::SampleTier::Osr), "%"},
        {"exec.jit_compiled", median(jit_compiled), "count"},
        {"exec.payoff_demotions", median(payoff_demotions), "count"},
        {"exec.code_kb", median(code_kb), "KiB"},
        {"heap.alloc_mb_s", static_cast<double>(d.allocated) / kMiB / phase_s, "MiB/s"},
        {"heap.gc_per_s", static_cast<double>(d.gcs) / phase_s, "1/s"},
        {"heap.gc_pause_us.p50", static_cast<double>(gc.p50_ns) / 1e3, "us"},
        {"heap.gc_pause_us.p99", static_cast<double>(gc.p99_ns) / 1e3, "us"},
        {"heap.gc_time_pct",
         traced_s > 0 ? static_cast<double>(gc.sum_ns) / 1e9 / traced_s * 100 : 0, "%"},
        {"heap.recycled_pct", pct(d.recycled, d.objects), "%"},
        {"heap.live_mb", median(live_mb), "MiB"},
        {"heap.live_drift_mb", liveDriftMb(), "MiB"},
        {"osgi.install_us", median(life_.install_us), "us"},
        {"osgi.start_us", median(life_.start_us), "us"},
        {"osgi.kill_us", median(life_.kill_us), "us"},
        {"obs.trace_overhead_pct",
         p50_untraced > 0 ? (p50_traced / p50_untraced - 1) * 100 : 0, "%"},
        {"obs.reconcile_pct", reconcile, "%"},
        {"gen.late_us.p99", late.p99, "us"},
        {"gen.max_inflight", static_cast<double>(maxInflight()), "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }

  // Churn: live bytes after each platform's last tenant kill minus after its
  // first, averaged over platforms; ~0 when killed tenants are reclaimed.
  double liveDriftMb() const {
    if (!w_.churn || life_.live_after_kill_mb.size() < static_cast<size_t>(kTenantCycles)) {
      return 0;
    }
    double sum = 0;
    const size_t platforms = life_.live_after_kill_mb.size() / kTenantCycles;
    for (size_t p = 0; p < platforms; ++p) {
      sum += life_.live_after_kill_mb[p * kTenantCycles + kTenantCycles - 1] -
             life_.live_after_kill_mb[p * kTenantCycles];
    }
    return sum / static_cast<double>(platforms);
  }

  u64 maxInflight() const {
    u64 m = 0;
    for (const RepResult& rr : reps_) m = std::max(m, rr.nominal.max_inflight);
    return m;
  }

  // The run's metadata, refusals and host slowdowns around `result`.
  void writeResultFile(const std::string& result) {
    if (o_.out_dir.empty()) return;
    const std::string path =
        strf("%s/%s-seed%llu-trace%d.json", o_.out_dir.c_str(), w_.name,
             static_cast<unsigned long long>(o_.seed), o_.trace ? 1 : 0);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f,
                 "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                 "\"trace\": %d, \"git\": \"%s\", \"build\": \"%s\", \"cores\": %u, "
                 "\"platforms\": %d, \"vm_options\": {\"mutator_threads\": %u}},\n",
                 w_.name, static_cast<unsigned long long>(o_.seed), o_.seconds,
                 o_.trace ? 1 : 0, o_.git_sha.c_str(), IJVM_BUILD_TYPE,
                 std::thread::hardware_concurrency(), kReps, kWorkers);
    std::fprintf(f, " \"refused\": %llu,\n \"host_slowdown\": [",
                 static_cast<unsigned long long>(samples_.refused));
    for (size_t i = 0; i < slowdowns_.size(); ++i) {
      std::fprintf(f, "%s%.4f", i ? ", " : "", slowdowns_[i]);
    }
    std::fprintf(f, "],\n \"result\": %s}\n", result.c_str());
    std::fclose(f);
  }

  const RunOptions& o_;
  const WorkloadSpec& w_;
  Inputs in_;
  ReqTable reqs_;
  Lifecycle life_;
  bool oracle_ok_ = true;
  Scaled setup_s_;
  std::vector<double> slowdowns_;  // per platform
  std::pair<u64, u64> steal_at_start_;
  std::vector<RepResult> reps_;
  Samples samples_;
  std::vector<obs::ProfileSample> profile_;
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_platform --workload <svc-small|svc-bulk|spec-mix|churn> "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--git-sha SHA]\n");
  return 2;
}

}  // namespace
}  // namespace ijvm::bench

int main(int argc, char** argv) {
  using namespace ijvm::bench;
  RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (val == w.name) o.w = &w;
      }
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--out") {
      o.out_dir = val;
    } else if (key == "--git-sha") {
      o.git_sha = val;
    } else {
      return usage();
    }
  }
  if (o.w == nullptr || argc % 2 == 0 || o.seconds <= 0) return usage();
  partitionCpus();
  Run run(o);
  return run.execute();
}
