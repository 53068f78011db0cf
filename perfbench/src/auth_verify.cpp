// `auth_verify`: enrollment of a synthetic fleet into an ARPS store
// (writes), then closed loops of verify clients against the mmap-ed store
// with the hot-device cache attached (reads): blocks from N clients for the
// run, and one block from 1 client, run a slice after each N-client block.
// The operation is one verify.
//
// Requests follow the E15 mix (10 % impostors, 2 % read noise, 90 % of
// traffic on the hot 1 % of devices) and are generated in set-up from the
// seed, each from its own sub-stream, into flat arrays (the claimed
// responses as packed words), so the benchmark's own memory stays small
// next to the store's.  Each client issues its next verify only after the
// previous one returned.  Decisions are written per request, so every
// N-client block's decision digest must equal the 1-client block's.

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "auth/auth_service.hpp"
#include "auth/authenticator.hpp"
#include "auth/store_binary.hpp"
#include "bench.hpp"
#include "keygen/sha256.hpp"
#include "sim/parallel.hpp"

namespace perfbench {

namespace {

using namespace aropuf;

constexpr double kImpostorFraction = 0.1;
constexpr double kNoise = 0.02;
constexpr double kHotFraction = 0.01;
constexpr double kHotProbability = 0.9;
constexpr std::size_t kCacheEntries = 4096;
/// Requests a client claims at a time (well under a millisecond of work).
constexpr std::size_t kClaimChunk = 256;
/// The 1-client block runs in this many slices, one after each cycle.
constexpr std::size_t kOneClientSlices = 8;

struct Requests {
  std::size_t bits = 0;
  std::size_t words_per_claim = 0;
  std::vector<DeviceId> ids;
  std::vector<std::uint64_t> claim_words;  ///< claim r at r * words_per_claim
  std::vector<std::uint8_t> impostor;

  [[nodiscard]] std::size_t size() const { return ids.size(); }

  /// Claim r as the verifier takes it (little-endian words are the
  /// LSB-first bytes from_bytes reads).
  [[nodiscard]] BitVector claim(std::size_t r) const {
    const auto* bytes =
        reinterpret_cast<const std::uint8_t*>(claim_words.data() + r * words_per_claim);
    return BitVector::from_bytes(bytes, bits);
  }
};

/// The E15 request mix, one sub-stream per request.
Requests make_requests(const FleetConfig& fleet, std::uint64_t stream_seed, std::size_t n) {
  static_assert(std::endian::native == std::endian::little);
  Requests q;
  q.bits = fleet.response_bits;
  q.words_per_claim = (fleet.response_bits + 63) / 64;
  q.ids.resize(n);
  q.claim_words.resize(n * q.words_per_claim);
  q.impostor.resize(n);
  const RngFabric fabric(stream_seed);
  const auto hot_devices = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(kHotFraction * static_cast<double>(fleet.devices)));
  parallel_for_chips(n, [&](std::size_t r) {
    Xoshiro256 rng = fabric.stream("auth-req", r);
    const bool hot = rng.bernoulli(kHotProbability);
    const std::uint64_t index = hot ? rng.bounded(hot_devices) : rng.bounded(fleet.devices);
    const bool is_impostor = rng.bernoulli(kImpostorFraction);
    BitVector claim;
    if (is_impostor) {
      std::uint8_t bytes[16];
      for (std::size_t off = 0; off < sizeof bytes; off += 8) {
        const std::uint64_t word = rng();
        for (std::size_t i = 0; i < 8; ++i) bytes[off + i] = static_cast<std::uint8_t>(word >> (8 * i));
      }
      claim = BitVector::from_bytes(bytes, fleet.response_bits);
    } else {
      claim = fleet_field_response(fleet, index, r, kNoise);
    }
    std::copy(claim.words().begin(), claim.words().end(),
              q.claim_words.begin() + static_cast<std::ptrdiff_t>(r * q.words_per_claim));
    q.ids[r] = fleet_device_id(fleet, index);
    q.impostor[r] = is_impostor ? 1 : 0;
  });
  return q;
}

/// Nanosecond latency histogram with an exact overflow list.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = std::size_t{1} << 17;

  void add(std::int64_t ns) {
    if (ns >= 0 && static_cast<std::size_t>(ns) < kBuckets) {
      ++counts_[static_cast<std::size_t>(ns)];
    } else {
      overflow_.push_back(ns);
    }
    ++total_;
  }

  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    overflow_.insert(overflow_.end(), o.overflow_.begin(), o.overflow_.end());
    total_ += o.total_;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Quantile in ns; within a bucket the samples are spread evenly over it.
  [[nodiscard]] double quantile_ns(double q) {
    if (total_ == 0) return 0.0;
    std::sort(overflow_.begin(), overflow_.end());
    const double rank = q * static_cast<double>(total_ - 1);
    double before = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const auto n = static_cast<double>(counts_[b]);
      if (n > 0.0 && rank < before + n) return static_cast<double>(b) + (rank - before) / n;
      before += n;
    }
    const auto i = static_cast<std::size_t>(rank - before);
    return static_cast<double>(overflow_[std::min(i, overflow_.size() - 1)]);
  }

  /// Samples strictly above `ns`.
  [[nodiscard]] std::uint64_t beyond(double ns) const {
    std::uint64_t n = 0;
    for (std::size_t b = static_cast<std::size_t>(ns) + 1; b < kBuckets; ++b) n += counts_[b];
    return n + overflow_.size();
  }

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::vector<std::int64_t> overflow_;
  std::uint64_t total_ = 0;
};

/// Decision byte: 0 reject, 1 accept, 2 verify returned no value.
std::uint8_t decide(const std::optional<AuthResult>& r) {
  if (!r.has_value()) return 2;
  return r->accepted ? 1 : 0;
}

/// Closed loop over requests [begin, end): `clients` threads, each issuing
/// its next request only after the previous one returned, writing decision
/// r to decisions[r] (sized to the whole stream).  Clients claim requests
/// from the shared stream in chunks, so one slowed CPU delays its own chunk,
/// not a fixed quarter of the block.  Appends each chunk's verifies per
/// second, times `clients`, to `chunk_rates` when given: the block's rate
/// while no client waits for a CPU the host has taken.  Returns the wall
/// seconds of the block.
double closed_loop(const Authenticator& auth, const Requests& q, std::size_t begin,
                   std::size_t end, int clients, std::vector<std::uint8_t>& decisions,
                   LatencyHistogram* latencies, std::vector<double>* chunk_rates = nullptr) {
  decisions.resize(q.size());
  std::vector<LatencyHistogram> per_client(latencies != nullptr ? clients : 0);
  std::vector<std::vector<double>> per_client_rates(static_cast<std::size_t>(clients));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(clients));
  std::atomic<std::size_t> next{begin};
  const std::int64_t t0 = now_ns();
  {
    const Region region(Layer::kHarness, "auth.clients", clients);
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < static_cast<std::size_t>(clients); ++c) {
      threads.emplace_back([&, c] {
        try {
          const TaskSpan task(Layer::kHarness, "auth.client", c);
          LatencyHistogram* hist = latencies != nullptr ? &per_client[c] : nullptr;
          for (;;) {
            const std::size_t chunk = next.fetch_add(kClaimChunk, std::memory_order_relaxed);
            if (chunk >= end) break;
            const std::size_t chunk_end = std::min(chunk + kClaimChunk, end);
            const std::int64_t chunk_start = now_ns();
            for (std::size_t r = chunk; r < chunk_end; ++r) {
              const BitVector claim = q.claim(r);
              std::optional<AuthResult> result;
              const std::int64_t start = now_ns();
              {
                const Span span(Layer::kAuth, "auth.verify", r);
                count(Count::kAuthVerifies);
                result = auth.verify(q.ids[r], claim);
              }
              const std::int64_t stop = now_ns();
              if (hist != nullptr) hist->add(stop - start);
              decisions[r] = decide(result);
            }
            per_client_rates[c].push_back(static_cast<double>((chunk_end - chunk) * clients) /
                                          seconds_between(chunk_start, now_ns()));
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
  }
  const double wall = seconds_between(t0, now_ns());
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (latencies != nullptr) {
    for (const auto& h : per_client) latencies->merge(h);
  }
  if (chunk_rates != nullptr) {
    for (const auto& rates : per_client_rates) {
      chunk_rates->insert(chunk_rates->end(), rates.begin(), rates.end());
    }
  }
  return wall;
}

std::uint64_t build(const FleetConfig& fleet, const std::string& path) {
  const Span span(Layer::kAuth, "auth.build");
  return build_fleet_shard(fleet, 0, 1, path);
}

std::shared_ptr<BinaryEnrollmentStore> open_store(const std::string& path) {
  const Span span(Layer::kAuth, "auth.open");
  return BinaryEnrollmentStore::open(path);
}

/// One enrollment: build the store at `path`, then open it through mmap.
/// Returns devices per second; checks the store holds the whole fleet.
double enroll(const FleetConfig& fleet, const std::string& path, const Options& opt,
              Result& result) {
  const std::int64_t t0 = now_ns();
  build(fleet, path);
  const auto store = open_store(path);
  const double rate = static_cast<double>(fleet.devices) / seconds_between(t0, now_ns());
  result.ops(fleet.devices);
  const std::uint64_t expected = fleet.devices + (opt.inject == "auth.device_count" ? 1 : 0);
  result.check(store->device_count() == expected,
               "enrolled store holds " + std::to_string(store->device_count()) + " devices");
  return rate;
}

/// Flips one byte in the middle of the file at `path` (self-test).
void corrupt_one_byte(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  const auto middle = static_cast<std::streamoff>(std::filesystem::file_size(path) / 2);
  f.seekg(middle);
  const char byte = static_cast<char>(f.get() ^ 0x5a);
  f.seekp(middle);
  f.put(byte);
}

bool same_file(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  return fa && fb &&
         std::equal(std::istreambuf_iterator<char>(fa), std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb), std::istreambuf_iterator<char>());
}

}  // namespace

void run_auth_verify(const Options& opt, Result& result) {
  FleetConfig fleet;
  fleet.devices = opt.tiny ? 20000 : 500000;
  fleet.seed = opt.seed;
  fleet.response_bits = 128;
  fleet.model = FleetModel::kSynthetic;
  const std::size_t requests = opt.tiny ? 200000 : 2000000;
  const std::size_t warmup = requests / 10;
  ParallelExecutor::set_global_thread_count(opt.threads);

  const std::string store_path = opt.out_dir + "/auth_store.arps";
  const std::string enroll_path = opt.out_dir + "/auth_enroll.arps";
  const RngFabric streams(opt.seed);

  // First enrollment: the store every verify block reads.
  std::vector<double> enroll_rates{enroll(fleet, store_path, opt, result)};

  // Set-up: open the store, attach the cache, generate the request stream.
  const AuthPolicy policy = AuthPolicy::for_false_accept_rate(fleet.response_bits, 1e-6);
  std::unique_ptr<Authenticator> auth;
  Requests q;
  const SetUpTimes setup = time_set_up([&] {
    auth.reset();
    q = Requests{};
    auth = std::make_unique<Authenticator>(policy, open_store(store_path),
                                           fleet_verifier_key(fleet.seed));
    auth->set_cache(kCacheEntries);
    q = make_requests(fleet, streams.derive("perfbench-requests"), requests);
  });
  if (opt.inject == "auth.missing") q.ids[0] = fleet_device_id(fleet, fleet.devices);
  const auto store_bytes = static_cast<double>(std::filesystem::file_size(store_path));

  // Untimed warm-up on its own request stream.
  {
    const Requests warm = make_requests(fleet, streams.derive("perfbench-warmup"), warmup);
    std::vector<std::uint8_t> decisions;
    (void)closed_loop(*auth, warm, 0, warm.size(), opt.threads, decisions, nullptr);
  }

  LatencyHistogram latencies;
  std::vector<double> block_rates;
  std::vector<double> chunk_rates;
  std::vector<double> one_chunk_rates;
  std::vector<Sha256::Digest> block_digests;
  std::uint64_t missing = 0;
  const std::uint64_t hits0 = auth->cache()->hits();
  const std::uint64_t misses0 = auth->cache()->misses();
  std::vector<std::uint8_t> decisions;
  // The 1-client block, one slice after each cycle; its decisions are the
  // reference every N-client block's digest must equal.
  const std::size_t slice = requests / kOneClientSlices;
  std::vector<std::uint8_t> reference;
  std::vector<bool> slice_done(kOneClientSlices, false);
  const auto one_client_slice = [&](std::size_t k, std::vector<double>* rates) {
    const std::size_t end = k + 1 == kOneClientSlices ? requests : (k + 1) * slice;
    (void)closed_loop(*auth, q, k * slice, end, 1, reference, nullptr, rates);
    slice_done[k] = true;
    result.ops(end - k * slice);
  };
  const CycleLog log = run_cycles(
      opt, 1,
      [&] {
        const double wall = closed_loop(*auth, q, 0, requests, opt.threads, decisions,
                                        &latencies, &chunk_rates);
        block_rates.push_back(static_cast<double>(requests) / wall);
        const auto bad =
            static_cast<std::uint64_t>(std::count(decisions.begin(), decisions.end(), 2));
        missing += bad;
        count(Count::kAuthVerifyFails, bad);
        result.ops(requests, bad);
        block_digests.push_back(Sha256::hash(decisions));

        // Each cycle also enrolls the fleet again, which must write the same bytes.
        enroll_rates.push_back(enroll(fleet, enroll_path, opt, result));
        if (opt.inject == "auth.enroll_bytes") corrupt_one_byte(enroll_path);
        result.check(same_file(store_path, enroll_path), "re-enrollment wrote a different store");
      },
      [&](int i) {
        const auto k = static_cast<std::size_t>(i);
        if (k < kOneClientSlices) one_client_slice(k, &one_chunk_rates);
      });
  const std::uint64_t hits = auth->cache()->hits() - hits0;
  const std::uint64_t misses = auth->cache()->misses() - misses0;

  // Slices the run had no cycle for complete the reference untimed.
  for (std::size_t k = 0; k < kOneClientSlices; ++k) {
    if (!slice_done[k]) one_client_slice(k, nullptr);
  }
  missing += static_cast<std::uint64_t>(std::count(reference.begin(), reference.end(), 2));
  if (opt.inject == "auth.digest") reference[0] ^= 1;
  const Sha256::Digest reference_digest = Sha256::hash(reference);
  for (std::size_t b = 0; b < block_digests.size(); ++b) {
    result.check(block_digests[b] == reference_digest,
                 "verify block " + std::to_string(b + 1) + ": " + std::to_string(opt.threads) +
                     "-client decision digest differs from the 1-client block");
  }

  std::uint64_t false_accepts = 0;
  std::uint64_t false_rejects = 0;
  std::uint64_t impostors = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    if (q.impostor[r] != 0) {
      ++impostors;
      false_accepts += reference[r] == 1;
    } else {
      false_rejects += reference[r] == 0;
    }
  }
  result.check(missing == 0, std::to_string(missing) + " verify calls returned no value");

  const double p50 = latencies.quantile_ns(0.50);
  const double tail_q = tail_quantile(latencies.total());
  const double tail = latencies.quantile_ns(tail_q);
  // The tail quantile must rest on at least 2e4 samples beyond it (1e3 at
  // the tiny size).
  const std::uint64_t beyond = latencies.beyond(tail);
  const std::uint64_t min_beyond =
      opt.inject == "auth.tail" ? latencies.total() : (opt.tiny ? 1000 : 20000);
  result.check(beyond >= min_beyond, "only " + std::to_string(beyond) +
                                         " latency samples beyond the tail quantile, fewer than " +
                                         std::to_string(min_beyond));

  JsonValue::Object info;
  info["devices"] = JsonValue(fleet.devices);
  info["requests_per_block"] = JsonValue(static_cast<std::uint64_t>(requests));
  info["blocks"] = JsonValue(static_cast<std::uint64_t>(block_rates.size()));
  info["block_verifies_per_s"] = samples(block_rates);
  info["enroll_per_s"] = samples(enroll_rates);
  info["clients"] = JsonValue(opt.threads);
  info["cache_entries"] = JsonValue(static_cast<std::uint64_t>(kCacheEntries));
  info["latency_samples"] = JsonValue(latencies.total());
  info["samples_beyond_tail"] = JsonValue(beyond);
  info["false_accepts"] = JsonValue(false_accepts);
  info["impostors"] = JsonValue(impostors);
  info["false_rejects"] = JsonValue(false_rejects);
  info["genuine"] = JsonValue(static_cast<std::uint64_t>(requests) - impostors);
  info["accept_threshold"] = JsonValue(policy.accept_threshold);
  info["store_bytes"] = JsonValue(store_bytes);
  info["decision_digest"] = JsonValue(Sha256::to_hex(reference_digest));
  result.info("auth", JsonValue(std::move(info)));

  report_set_up(result, setup);
  // Throughput is the median over 256-request chunks: a client the host
  // deschedules, or one waiting behind it for the cache lock, slows a few
  // chunks, where it would slow a whole block.
  report_ops(result, median(chunk_rates), median(one_chunk_rates), p50 * 1e-9, tail * 1e-9,
             tail_q, latencies.total());
  if (opt.trace) {
    add_layer_metrics(result, log);
    result.metric("auth.cache_hit_frac",
                  hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                                    : 0.0,
                  "fraction");
    result.metric("auth.store_bytes_per_device", store_bytes / static_cast<double>(fleet.devices),
                  "B");
  }
  std::filesystem::remove(enroll_path);
  std::filesystem::remove(store_path);
}

}  // namespace perfbench
