// Guest side of the platform benchmark: the bundles a tenant deploys and the
// independent C++ reference each reply is checked against.
//
// Every request is an int[] (or, for in-process messages, an api/Rec[])
// handed to an api/Handler service; every reply is an api/Reply
//   { int acc; int n; int[] head; }
// whose fields the reference functions below recompute from the request.
#pragma once

#include <string>
#include <vector>

#include "osgi/framework.h"
#include "workloads/spec.h"

namespace ijvm::bench {

// api/Handler.handle and api/RecHandler.handleRecs: (request id, message).
inline constexpr const char* kHandleDesc = "(I[I)Lapi/Reply;";
inline constexpr const char* kHandleRecsDesc = "(I[Lapi/Rec;)Lapi/Reply;";

// api/Rec: one record of an in-process object-graph message. Such a message
// is kRecsPerMessage records carrying the first kRecsPerMessage * kRecInts
// values of its payload: enough objects to exercise the copy fallback
// without turning the workload into an allocator benchmark.
inline constexpr size_t kRecInts = 8;
inline constexpr size_t kRecsPerMessage = 64;
inline constexpr const char* kRecFields[kRecInts] = {"a", "b", "c", "d",
                                                     "e", "f", "g", "h"};

// Shared API classes, defined in the framework loader so Isolate0 (the
// dispatcher) and every bundle link against the same definitions.
void defineServiceApi(Framework& fw);

// The shared dictionary bundle: registers service "dict" (api/Dict with
// lookup(I)I and digest([I)I over a 4096-entry table).
BundleDescriptor makeDictBundle();

// Front-end bundle `name`: registers service `name` (api/Handler and
// api/RecHandler). Looks keys up in "dict" with inter-isolate calls and
// keeps its last kRetained requests alive.
BundleDescriptor makeFrontEndBundle(const std::string& name);
inline constexpr int kRetained = 64;

// Tenant bundle for the churn workload: service `name`, ~256 KiB of
// garbage per request (the A4-style allocator).
BundleDescriptor makeTenantBundle(const std::string& name);

// A SPEC analog wrapped as a bundle registering service `name`; the request
// int[]{size} runs <analog>/Main.run(size).
BundleDescriptor makeSpecBundle(const std::string& name, const SpecWorkload& wl);

// The co-located client of the svc-bulk workload. Class client/Gen has the
// natives ints(I)[I and recs(I)[Lapi/Rec; (bound by the harness) that
// create a fresh message in the client's isolate from payload #i.
BundleDescriptor makeClientBundle();

// ---- reference results (C++; no VM involved) ----
struct ExpectedReply {
  i32 acc = 0;
  i32 n = 0;
  std::vector<i32> head;  // empty = null
};

ExpectedReply referenceFrontEnd(const std::vector<i32>& req);
// The api/Rec[] form of payload `req`: record i carries the kRecInts
// values starting at req[kRecInts * i].
ExpectedReply referenceFrontEndRecs(const std::vector<i32>& req);
ExpectedReply referenceTenant(const std::vector<i32>& req);

}  // namespace ijvm::bench
