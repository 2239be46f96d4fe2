// gsgcn serve_cli — fault-tolerant online inference server.
//
// Serves logits for vertices of a synthetic dataset over the CRC-framed
// TCP protocol (src/serve/protocol.hpp), with hot snapshot swap from a
// checkpoint directory, deadline-based load shedding, and graceful
// SIGTERM drain:
//
//   ./serve_cli --vertices 2000 --port 7070 --workers 2
//   ./serve_cli --port 0 --port-file /tmp/port --checkpoint-dir ckpts
//
// The dataset/model flags must match the trainer writing --checkpoint-dir
// (same --vertices/--classes/--features/--hidden/--layers/--aggregator/
// --seed); mismatched checkpoints are rejected per file and the server
// keeps serving its last-known-good weights.
//
// Exit code 0 means every admitted request was answered before exit.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "data/feature_store.hpp"
#include "data/synthetic.hpp"
#include "gcn/adam.hpp"
#include "graph/reorder.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace gsgcn;

serve::Server* g_server = nullptr;

extern "C" void handle_term(int) {
  // Async-signal-safe: request_shutdown is one write(2) to an eventfd.
  if (g_server != nullptr) g_server->request_shutdown();
}

void print_help() {
  std::printf(R"(gsgcn serve_cli — online inference server

dataset (synthetic; must match the trainer feeding --checkpoint-dir):
  --vertices N (2000)  --classes C (8)   --features F (48)
  --degree D (14)      --seed S (42)

model:
  --hidden H (64)      --layers L (2)
  --aggregator A       mean | sum | symmetric  (mean/sum serve exactly;
                       symmetric is approximate at the batch boundary)

serving:
  --port P (0)         0 = kernel-assigned; see --port-file
  --port-file FILE     write the bound port (CI discovers ephemeral ports)
  --workers W (1)      inference worker threads
  --infer-threads T(1) threads per forward pass
  --queue-capacity (64)  admission queue bound; beyond it requests shed
  --max-batch B (8)    requests coalesced per forward pass
  --batch-window (2ms) how long a batch waits to fill (500us, 2ms, 1s...)
  --deadline (1s)      default request deadline (0 = never expire)
  --idle-timeout (30s) reap connections with no IO progress

features:
  --feature-dtype D    fp32 | fp16 | bf16 | int8 — serve from a compressed
                       feature store (fp32 = zero-copy view; default)
  --feature-cache-mb M hot-vertex fp32 cache budget, degree-ordered (0)

snapshots:
  --checkpoint-dir D   watch D for trainer checkpoints; hot-swap on change
  --snapshot-poll (50ms) directory poll interval

misc:
  --stats-out FILE     write final counters as JSON on exit
)");
}

propagation::AggregatorKind parse_aggregator(const std::string& s) {
  if (s == "mean") return propagation::AggregatorKind::kMean;
  if (s == "sum") return propagation::AggregatorKind::kSum;
  if (s == "symmetric") return propagation::AggregatorKind::kSymmetric;
  throw std::invalid_argument("unknown --aggregator: " + s);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv);
    if (cli.has("help")) {
      print_help();
      return 0;
    }
    const auto seed = static_cast<std::uint64_t>(cli.get("seed", 42));

    data::SyntheticParams p;
    p.num_vertices = static_cast<graph::Vid>(cli.get("vertices", 2000));
    p.num_classes = static_cast<std::uint32_t>(cli.get("classes", 8));
    p.feature_dim = static_cast<std::size_t>(cli.get("features", 48));
    p.avg_degree = cli.get("degree", 14.0);
    p.seed = seed;
    const data::Dataset ds = data::make_synthetic(p);

    gcn::ModelConfig mc;
    mc.in_dim = ds.feature_dim();
    mc.hidden_dim = static_cast<std::size_t>(cli.get("hidden", 64));
    mc.num_classes = ds.num_classes();
    mc.num_layers = cli.get("layers", 2);
    mc.seed = seed;
    mc.aggregator =
        parse_aggregator(cli.get("aggregator", std::string("mean")));

    serve::ServerOptions so;
    so.port = static_cast<std::uint16_t>(cli.get("port", 0));
    so.num_workers = cli.get("workers", 1);
    so.infer_threads = cli.get("infer-threads", 1);
    so.queue_capacity = static_cast<std::size_t>(cli.get("queue-capacity", 64));
    so.max_batch = static_cast<std::size_t>(cli.get("max-batch", 8));
    so.batch_window_ms = cli.get_duration_ms("batch-window", 2.0);
    so.default_deadline_ms =
        static_cast<std::uint32_t>(cli.get_duration_ms("deadline", 1000.0));
    so.idle_timeout_ms = cli.get_duration_ms("idle-timeout", 30000.0);

    const auto feat_dtype =
        data::parse_feature_dtype(cli.get("feature-dtype", std::string("fp32")));
    const auto feat_cache_mb =
        static_cast<std::size_t>(cli.get("feature-cache-mb", 0));

    const std::string ckpt_dir = cli.get("checkpoint-dir", std::string());
    const double poll_ms = cli.get_duration_ms("snapshot-poll", 50.0);
    const std::string port_file = cli.get("port-file", std::string());
    const std::string stats_out = cli.get("stats-out", std::string());

    for (const auto& flag : cli.unused()) {
      std::cerr << "unknown flag: --" << flag << " (see --help)\n";
      return 2;
    }

    // Initial snapshot: random-init weights (epoch -1). A checkpoint dir
    // with existing valid checkpoints replaces it on the first poll,
    // before the listener opens.
    serve::SnapshotStore store(std::make_shared<const serve::ModelSnapshot>(
        0, -1, gcn::GcnModel(mc)));
    std::unique_ptr<serve::SnapshotWatcher> watcher;
    if (!ckpt_dir.empty()) {
      watcher = std::make_unique<serve::SnapshotWatcher>(ckpt_dir, mc, store);
      watcher->poll_once();
      watcher->start(poll_ms);
    }

    // fp32 with no cache serves straight from ds.features (zero copy);
    // otherwise quantize into a store with degree-ordered cache residency.
    data::FeatureStore fstore;
    if (feat_dtype == data::FeatureDtype::kF32 && feat_cache_mb == 0) {
      fstore = data::FeatureStore::view(ds.features);
    } else {
      data::FeatureStoreOptions fo;
      fo.dtype = feat_dtype;
      fo.cache_mb = feat_cache_mb;
      fstore = data::FeatureStore::build(ds.features, fo,
                                         graph::degree_order(ds.graph));
    }

    serve::Server server(store, ds.graph, fstore, so);
    g_server = &server;
    std::signal(SIGTERM, handle_term);
    std::signal(SIGINT, handle_term);
    server.start();

    std::printf("serving '%s' (%u vertices, %zu classes) on 127.0.0.1:%u\n",
                ds.name.c_str(), ds.num_vertices(), ds.num_classes(),
                static_cast<unsigned>(server.port()));
    std::printf("  workers=%d batch<=%zu window=%.3gms queue<=%zu "
                "deadline=%ums ckpt=%s\n",
                so.num_workers, so.max_batch, so.batch_window_ms,
                so.queue_capacity, so.default_deadline_ms,
                ckpt_dir.empty() ? "(none)" : ckpt_dir.c_str());
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream pf(port_file, std::ios::trunc);
      pf << server.port() << "\n";
      if (!pf) {
        std::cerr << "error: cannot write --port-file " << port_file << "\n";
        server.stop();
        return 1;
      }
    }

    server.wait();  // returns when SIGTERM/SIGINT drain completes
    server.stop();
    if (watcher) watcher->stop();
    g_server = nullptr;

    // The server's outcome counters (serve.*); one that never fired was
    // never registered and reads as zero.
    const obs::MetricsSnapshot snap = obs::Registry::instance().scrape();
    const auto count = [&snap](const std::string& name) -> long long {
      for (const auto& [n, v] : snap.counters) {
        if (n == "serve." + name) return static_cast<long long>(v);
      }
      return 0;
    };
    std::printf(
        "drained: %lld conns, %lld requests, %lld ok, %lld shed "
        "(%lld full + %lld deadline), %lld bad, %lld protocol, "
        "%lld internal, %lld reaped, %lld batches, %llu swaps\n",
        count("accepted"), count("requests"), count("ok_replies"),
        count("shed_queue_full") + count("shed_deadline"),
        count("shed_queue_full"), count("shed_deadline"),
        count("bad_requests"), count("protocol_errors"),
        count("internal_errors"), count("idle_reaped"), count("batches"),
        static_cast<unsigned long long>(store.swaps()));
    if (watcher) {
      std::printf("snapshots: loaded epoch %d, %llu rejected, %llu skipped\n",
                  watcher->loaded_epoch(),
                  static_cast<unsigned long long>(watcher->rejected()),
                  static_cast<unsigned long long>(watcher->fallbacks()));
    }

    if (!stats_out.empty()) {
      std::string json;
      util::JsonWriter w(&json);
      w.begin_object();
      for (const char* name :
           {"accepted", "requests", "ok_replies", "pings", "shed_queue_full",
            "shed_deadline", "bad_requests", "protocol_errors",
            "internal_errors", "rejected_shutdown", "idle_reaped",
            "batches"}) {
        w.key(name).value(static_cast<std::int64_t>(count(name)));
      }
      w.key("snapshot_swaps").value(static_cast<std::int64_t>(store.swaps()));
      w.key("loaded_epoch")
          .value(watcher ? watcher->loaded_epoch() : -1);
      w.key("snapshots_rejected")
          .value(static_cast<std::int64_t>(watcher ? watcher->rejected() : 0));
      w.end_object();
      std::ofstream out(stats_out, std::ios::trunc);
      out << json << "\n";
      if (!out) {
        std::cerr << "error: cannot write --stats-out " << stats_out << "\n";
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
