// Train-and-deploy walkthrough: the full Astraea lifecycle against the public
// API — train a (tiny-budget) policy with the multi-agent trainer, checkpoint
// it, load it back as a deployable MlpPolicy, and race it on an emulated link.
//
// The two-episode budget keeps the example fast. A policy this young is far
// from converged — it may leave most of an easy two-flow link idle — so the
// race prints it next to the distilled reference; score checkpoints on the
// full scorecard with tools/astraea_eval. Use tools/astraea_train for real
// training runs.

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/window_metrics.h"
#include "src/train/vectorized_trainer.h"

int main() {
  using namespace astraea;

  // 1. Train: two 8-second episodes sampled from the paper's Table-3 ranges.
  VectorizedTrainerConfig config;
  config.episode_length = Seconds(8.0);
  config.num_envs = 2;  // Appendix A: parallel environment instances
  config.seed = 3;
  VectorizedTrainer trainer(config);
  std::printf("training (2 episodes x 8s, 2 env instances)...\n");
  trainer.Train(2, [](const EpisodeDiagnostics& d) {
    std::printf("  episode %d: mean reward %+.4f, R_fair %.4f, critic loss %.5f\n", d.episode,
                d.env.mean_reward, d.env.mean_r_fair, d.td3.critic_loss);
  });

  // 2. Checkpoint and reload as a deployable policy.
  const std::string ckpt = "/tmp/astraea_example_policy.ckpt";
  trainer.SaveCheckpoint(ckpt);
  const auto trained = LoadDefaultPolicy(ckpt);
  std::printf("checkpoint saved and reloaded: %s\n\n", trained->name().c_str());

  // 3. Deploy: two flows of each policy variant on 60 Mbps / 30 ms.
  auto race = [](std::shared_ptr<const Policy> policy) {
    DumbbellConfig link;
    link.bandwidth = Mbps(60);
    DumbbellScenario scenario(link);
    scenario.scheme_options().astraea_policy = std::move(policy);
    scenario.AddFlow("astraea", 0);
    scenario.AddFlow("astraea", Seconds(5.0));
    scenario.Run(Seconds(25.0));
    const auto thr = FlowMeanThroughputs(scenario.network(), Seconds(10.0), Seconds(25.0));
    std::printf("  flows: %.1f + %.1f Mbps, Jain %.3f, utilization %.3f\n", thr[0], thr[1],
                JainIndex(thr),
                LinkUtilization(scenario.network(), 0, Seconds(10.0), Seconds(25.0)));
  };
  std::printf("trained policy (2-episode budget):\n");
  race(trained);
  std::printf("distilled reference policy (what a full training run converges toward):\n");
  race(std::make_shared<DistilledPolicy>());
  return 0;
}
