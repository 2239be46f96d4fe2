// Deeper GCN scenario (paper Section VI-D): the graph-sampling design
// makes 3-layer models affordable because per-batch work is linear in L,
// while layer sampling pays fanout^L. Trains L = 1, 2, 3 with our trainer
// and the GraphSAGE baseline and reports time per weight update.
//
//   ./deep_gcn [--vertices 2500] [--epochs 4] [--fanout 6]

#include <cstdio>
#include <iostream>

#include "baselines/layer_sampling.hpp"
#include "data/synthetic.hpp"
#include "gcn/trainer.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace gsgcn;
  try {
    util::Cli cli(argc, argv);
    data::SyntheticParams dp;
    dp.name = "deep";
    dp.num_vertices = static_cast<graph::Vid>(cli.get("vertices", 2500));
    dp.num_classes = 6;
    dp.feature_dim = 32;
    dp.avg_degree = 14.0;
    dp.seed = static_cast<std::uint64_t>(cli.get("seed", 42));
    const int epochs = cli.get("epochs", 4);
    const graph::Vid fanout = static_cast<graph::Vid>(cli.get("fanout", 6));

    for (const auto& flag : cli.unused()) {
      std::cerr << "unknown flag: --" << flag << "\n";
      return 2;
    }

    const data::Dataset ds = data::make_synthetic(dp);
    std::printf("Dataset: %u vertices, avg degree %.1f\n",
                ds.graph.num_vertices(), ds.graph.average_degree());

    util::Table table({"layers", "method", "test F1", "ms/update", "updates"});
    for (const int layers : {1, 2, 3}) {
      {
        gcn::TrainerConfig tc;
        tc.hidden_dim = 32;
        tc.num_layers = layers;
        tc.epochs = epochs;
        tc.frontier_size = 100;
        tc.budget = 400;
        tc.p_inter = util::max_threads();
        tc.threads = util::max_threads();
        tc.seed = dp.seed;
        tc.eval_every_epoch = false;
        gcn::Trainer trainer(ds, tc);
        const auto r = trainer.train();
        table.row()
            .cell(layers)
            .cell("graph-sampling (ours)")
            .cell(r.final_test_f1, 4)
            .cell(1e3 * r.train_seconds / static_cast<double>(r.iterations), 2)
            .cell(r.iterations);
      }
      {
        baselines::LayerSamplingConfig sc;
        sc.hidden_dim = 32;
        sc.num_layers = layers;
        sc.epochs = epochs;
        sc.batch_size = 400;
        sc.fanout = fanout;
        sc.threads = util::max_threads();
        sc.seed = dp.seed;
        sc.eval_every_epoch = false;
        baselines::LayerSamplingTrainer trainer(ds, sc);
        const auto r = trainer.train();
        table.row()
            .cell(layers)
            .cell("layer-sampling (SAGE)")
            .cell(r.final_test_f1, 4)
            .cell(1e3 * r.train_seconds / static_cast<double>(r.iterations), 2)
            .cell(r.iterations);
      }
    }
    table.print("Cost of depth: graph sampling vs layer sampling");
    std::printf(
        "\nExpected shape: ms/update grows ~linearly with L for graph "
        "sampling and\n~%ux per extra layer for layer sampling (neighbor "
        "explosion).\n",
        fanout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
