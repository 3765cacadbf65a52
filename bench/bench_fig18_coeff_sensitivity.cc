// Figure 18 (Appendix A) — sensitivity of the fairness coefficient c3:
// trains a fresh policy per c3 value for a small episode budget and reports
// the deterministic 3-flow evaluation Jain index.
//
// Note: the paper trains to convergence per point (Jain ~0.99 flat across
// 0.05..0.35); this bench demonstrates the sweep machinery at a single-core
// budget — expect noisier, lower absolute values but no strong trend in c3
// (EXPERIMENTS.md records the caveat). Increase ASTRAEA_FIG18_EPISODES for a
// longer, closer-to-paper run.

#include <cstdio>
#include <cstdlib>

#include "src/eval/table.h"
#include "src/train/vectorized_trainer.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 18", "Fairness-coefficient (c3) sensitivity sweep");
  int episodes = QuickMode(argc, argv) ? 2 : 6;
  if (const char* env = std::getenv("ASTRAEA_FIG18_EPISODES"); env != nullptr) {
    episodes = std::max(1, std::atoi(env));
  }

  ConsoleTable table({"c3", "episodes", "eval Jain (trained)", "mean R_fair during training"});
  for (double c3 : {0.05, 0.15, 0.25, 0.35}) {
    VectorizedTrainerConfig config;
    config.hp.reward.c3 = c3;
    config.episode_length = Seconds(12.0);
    config.num_envs = 1;
    config.seed = 42;
    VectorizedTrainer trainer(config);
    double r_fair_acc = 0.0;
    int n = 0;
    trainer.Train(episodes, [&](const EpisodeDiagnostics& d) {
      r_fair_acc += d.env.mean_r_fair;
      ++n;
    });
    const double jain = trainer.EvaluateFairness();
    table.AddRow({ConsoleTable::Num(c3, 2), std::to_string(episodes),
                  ConsoleTable::Num(jain, 3), ConsoleTable::Num(r_fair_acc / n, 4)});
  }
  table.Print();
  std::printf("\npaper: Jain stays ~0.99 for c3 in [0.05, 0.35] after full training — the "
              "reward is not hypersensitive to the fairness weight\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
