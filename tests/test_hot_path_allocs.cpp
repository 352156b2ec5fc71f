// Runtime complement to tools/analysis' hot-path-alloc rule: count real
// operator-new calls per request on the 1 KB cache-hit serving chain and
// ratchet the number as a regression bound (ROADMAP item 2 drives it to
// zero; this test makes every step down permanent).
//
// The measured chain is the single-threaded core of what ServerWorker does
// per keep-alive request: HttpDecoder::feed on the raw bytes →
// next_request → Proxy::handle_http_async with an inline respond (the
// cache HIT answers before it returns) → the head chunk and body chunks
// the writer queues (head_chunk + take_body_chunks). The synchronous
// handle_http is not measured: it parses the prebuilt head back into a
// full HeaderMap for in-process callers, which the socket path never
// does. Measuring in-process keeps the count exact — no cross-thread
// noise, no socket buffers — so the bound can be tight.
//
// History of the measured number (1 KB object, libstdc++ 12, worst/avg):
//   pre PR 8 fixes:  41 / 39 — header-map vector growth (1→2→4→8 per
//                    response), per-field heap temporaries in the head
//                    serializers, optional<string> header copies, and a
//                    redundant HeaderMap reset per decoded message.
//   post PR 8 fixes: 22 / 20 — HeaderMap::reserve(8) + get_view,
//                    piecewise serialize_fields, reserved serialize_head.
//   prebuilt heads:   5 /  3 — measured on handle_http_async from here
//                    on. Each cache entry keeps its serialized HIT head,
//                    the host is looked up as spelled (no parse_uri or
//                    parse_host), recency lives in LruCache (no list node
//                    per touch), and the body chunk vector moves to the
//                    writer instead of being rebuilt.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/http_decoder.hpp"
#include "net/http_message.hpp"

#include "counting_new.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

// The ratcheted bound: allocations per request on the 1 KB cache-hit chain.
// Measured worst-case 41 before the header-map fixes, 22 after them, and 5
// with prebuilt HIT heads, on libstdc++ 12; the bound leaves slack of 3 for
// stdlib variance across CI images, not for regressions. Lower it when you
// lower the count — it must never go back up.
constexpr std::uint64_t kAllocRatchet = 8;

struct HotPathDeployment {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{2024, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs", &signer};
  Proxy proxy{&net, "cache.ad1", "nrs", &dns};

  HotPathDeployment() {
    net.attach("nrs", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &reverse_proxy);
    net.attach("cache.ad1", &proxy);
  }

  SelfCertifyingName publish(const std::string& label,
                             const std::string& body) {
    origin.put(label, body);
    const auto name = reverse_proxy.publish(label);
    EXPECT_TRUE(name.has_value());
    return *name;
  }
};

/// One keep-alive request through the serving chain; returns the response
/// status so the caller can sanity-check outside the measured window.
int serve_once(HotPathDeployment& d, net::HttpDecoder& decoder,
               const std::string& wire_request) {
  decoder.feed(wire_request);
  auto request = decoder.next_request();
  if (!request.has_value()) return -1;
  net::HttpResponse response;
  const auto op = d.proxy.handle_http_async(
      *request, "client", nullptr,
      [&response](net::HttpResponse settled) { response = std::move(settled); });
  if (op != nullptr) return -3;  // parked: not the inline HIT chain
  const core::Chunk head = response.head_chunk();
  auto chunks = response.take_body_chunks();
  if (head.empty() || chunks.empty()) return -2;
  return response.status;
}

TEST(HotPathAllocs, CacheHitAllocationsStayUnderRatchet) {
  HotPathDeployment d;
  const auto name = d.publish("obj", std::string(1024, 'x'));
  const std::string wire =
      "GET http://" + name.host() + "/ HTTP/1.1\r\n\r\n";

  net::HttpDecoder decoder{net::HttpDecoder::Mode::Request};
  // Warm up: the first request is a MISS (fetch + verify + cache fill);
  // a few more let any lazily-grown buffers reach steady state.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(serve_once(d, decoder, wire), 200);
  }

  constexpr int kRequests = 16;
  std::uint64_t worst = 0;
  std::uint64_t total = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::uint64_t before = allocation_count();
    const int status = serve_once(d, decoder, wire);
    const std::uint64_t per_request = allocation_count() - before;
    ASSERT_EQ(status, 200);
    worst = std::max(worst, per_request);
    total += per_request;
  }
  const std::uint64_t average = total / kRequests;
  RecordProperty("allocs_per_request_worst", static_cast<int>(worst));
  RecordProperty("allocs_per_request_avg", static_cast<int>(average));
  std::printf("[hot-path] allocations/request on 1 KB cache hit: "
              "avg %llu, worst %llu (ratchet %llu)\n",
              static_cast<unsigned long long>(average),
              static_cast<unsigned long long>(worst),
              static_cast<unsigned long long>(kAllocRatchet));
  EXPECT_GT(worst, 0u) << "a zero count means the counting hook is not "
                          "linked in — the ratchet would be vacuous";
  EXPECT_LE(worst, kAllocRatchet)
      << "the cache-hit serving chain allocates more than the ratcheted "
         "bound; run tools/analysis/idicn_analysis.py --rule hot-path-alloc "
         "to find the new allocation, fix it, and only then touch "
         "kAllocRatchet (downward)";
}

// Failing-by-construction proof that the hook detects an injected hot-path
// allocation: the same measured window with one extra heap allocation must
// read exactly one count higher. If this test fails, the ratchet above is
// not actually guarding anything.
TEST(HotPathAllocs, CountingHookDetectsInjectedAllocation) {
  HotPathDeployment d;
  const auto name = d.publish("obj2", std::string(1024, 'y'));
  const std::string wire =
      "GET http://" + name.host() + "/ HTTP/1.1\r\n\r\n";
  net::HttpDecoder decoder{net::HttpDecoder::Mode::Request};
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(serve_once(d, decoder, wire), 200);
  }

  const std::uint64_t before_clean = allocation_count();
  ASSERT_EQ(serve_once(d, decoder, wire), 200);
  const std::uint64_t clean = allocation_count() - before_clean;

  const std::uint64_t before_injected = allocation_count();
  ASSERT_EQ(serve_once(d, decoder, wire), 200);
  // The "bug": one extra allocation smuggled into the serving window.
  // volatile defeats heap elision (C++14 allows new-expressions to be
  // optimized out; a volatile read of the pointer does not).
  int* volatile injected = new int(42);
  delete injected;
  const std::uint64_t with_injection =
      allocation_count() - before_injected;

  EXPECT_EQ(with_injection, clean + 1)
      << "the counting hook missed an injected allocation — every form of "
         "operator new must funnel through it";
  EXPECT_GT(with_injection, clean);
}

}  // namespace
