// Kill-and-resume determinism: a checkpointed run that dies (simulated
// kill, failed write, graceful shutdown) and resumes must reproduce the
// uninterrupted run's assignment and MDL exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/config.hpp"
#include "ckpt/fault_injector.hpp"
#include "ckpt/shutdown.hpp"
#include "generator/dcsbm.hpp"
#include "sample/sample_sbp.hpp"
#include "sbp/sbp.hpp"
#include "util/errors.hpp"

namespace hsbp {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

generator::GeneratedGraph planted(std::uint64_t seed) {
  generator::DcsbmParams p;
  p.num_vertices = 120;
  p.num_communities = 4;
  p.num_edges = 900;
  p.ratio_within_between = 4.0;
  p.seed = seed;
  return generator::generate_dcsbm(p);
}

/// One RNG stream pins the thread budget, which resume requires to
/// match, and keeps every variant's phase order deterministic — the
/// precondition for the exact-reproduction assertions below.
sbp::SbpConfig small_config(sbp::Variant variant) {
  sbp::SbpConfig config;
  config.variant = variant;
  config.seed = 11;
  config.num_threads = 1;
  return config;
}

/// Runs to completion with a passive injector just to learn how many
/// phase boundaries the run crosses.
int count_phases(const graph::Graph& graph, const sbp::SbpConfig& config) {
  ckpt::FaultInjector probe;
  ckpt::CheckpointConfig ck;
  ck.fault = &probe;
  sbp::run(graph, config, ck);
  return probe.phases_seen();
}

void expect_identical(const sbp::SbpResult& resumed,
                      const sbp::SbpResult& baseline, const char* tag) {
  EXPECT_EQ(resumed.assignment, baseline.assignment) << tag;
  EXPECT_EQ(resumed.num_blocks, baseline.num_blocks) << tag;
  EXPECT_EQ(resumed.mdl, baseline.mdl) << tag;  // exact, not approximate
  EXPECT_EQ(resumed.stats.outer_iterations, baseline.stats.outer_iterations)
      << tag;
  EXPECT_EQ(resumed.stats.mcmc_iterations, baseline.stats.mcmc_iterations)
      << tag;
}

void kill_and_resume_reproduces(sbp::Variant variant, const char* tag) {
  const auto g = planted(5);
  const auto config = small_config(variant);
  const auto baseline = sbp::run(g.graph, config);

  const int phases = count_phases(g.graph, config);
  ASSERT_GE(phases, 2) << tag;

  const std::string path = temp_path(std::string("kill_") + tag + ".ckpt");
  ckpt::FaultInjector fault;
  fault.kill_at_phase(phases / 2 + 1);  // mid-run; a snapshot exists
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  ck.fault = &fault;
  EXPECT_THROW(sbp::run(g.graph, config, ck), ckpt::SimulatedKill) << tag;
  ASSERT_TRUE(fs::exists(path)) << tag;

  ckpt::CheckpointConfig resume;
  resume.save_path = path;
  resume.resume_path = path;
  const auto resumed = sbp::run(g.graph, config, resume);
  EXPECT_FALSE(resumed.interrupted) << tag;
  expect_identical(resumed, baseline, tag);
  fs::remove(path);
}

TEST(KillAndResume, MetropolisReproducesUninterruptedRun) {
  kill_and_resume_reproduces(sbp::Variant::Metropolis, "sbp");
}

TEST(KillAndResume, HybridReproducesUninterruptedRun) {
  kill_and_resume_reproduces(sbp::Variant::Hybrid, "hsbp");
}

TEST(KillAndResume, FailedWriteLeavesPreviousCheckpointUsable) {
  const auto g = planted(5);
  const auto config = small_config(sbp::Variant::Metropolis);
  const auto baseline = sbp::run(g.graph, config);
  ASSERT_GE(baseline.stats.outer_iterations, 2);

  // The 2nd checkpoint write dies (disk full); the phase-1 snapshot
  // must survive and remain resumable.
  const std::string path = temp_path("fail_write.ckpt");
  ckpt::FaultInjector fault;
  fault.fail_write(2);
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  ck.fault = &fault;
  EXPECT_THROW(sbp::run(g.graph, config, ck), util::IoError);

  const auto survivor = ckpt::load_sbp_checkpoint(path);
  EXPECT_EQ(survivor.stats.outer_iterations, 1);

  ckpt::CheckpointConfig resume;
  resume.save_path = path;
  resume.resume_path = path;
  expect_identical(sbp::run(g.graph, config, resume), baseline,
                   "fail-write");
  fs::remove(path);
}

TEST(GracefulShutdown, InterruptedRunResumesToSameAnswer) {
  const auto g = planted(6);
  const auto config = small_config(sbp::Variant::Hybrid);
  const auto baseline = sbp::run(g.graph, config);
  ASSERT_GE(baseline.stats.outer_iterations, 2);

  const std::string path = temp_path("shutdown.ckpt");
  ckpt::clear_shutdown();
  ckpt::request_shutdown();
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  const auto partial = sbp::run(g.graph, config, ck);
  ckpt::clear_shutdown();

  EXPECT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.stats.outer_iterations, 1);  // stopped at 1st boundary
  EXPECT_FALSE(partial.assignment.empty());      // best-so-far partition
  ASSERT_TRUE(fs::exists(path));

  ckpt::CheckpointConfig resume;
  resume.save_path = path;
  resume.resume_path = path;
  const auto resumed = sbp::run(g.graph, config, resume);
  EXPECT_FALSE(resumed.interrupted);
  expect_identical(resumed, baseline, "shutdown");
  fs::remove(path);
}

TEST(Resume, MissingCheckpointThrowsIoError) {
  const auto g = planted(5);
  ckpt::CheckpointConfig resume;
  resume.resume_path = temp_path("never_written.ckpt");
  EXPECT_THROW(
      sbp::run(g.graph, small_config(sbp::Variant::Metropolis), resume),
      util::IoError);
}

TEST(Resume, TornCheckpointRejected) {
  const auto g = planted(5);
  const auto config = small_config(sbp::Variant::Metropolis);
  const std::string path = temp_path("torn.ckpt");
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  sbp::run(g.graph, config, ck);

  // Tear the file the way a post-rename data loss would.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() / 2);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  ckpt::CheckpointConfig resume;
  resume.resume_path = path;
  EXPECT_THROW(sbp::run(g.graph, config, resume), util::DataError);
  fs::remove(path);
}

TEST(Resume, WrongGraphRejected) {
  const auto g = planted(5);
  const auto other = planted(99);
  const auto config = small_config(sbp::Variant::Metropolis);
  const std::string path = temp_path("wrong_graph.ckpt");
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  sbp::run(g.graph, config, ck);

  ckpt::CheckpointConfig resume;
  resume.resume_path = path;
  try {
    sbp::run(other.graph, config, resume);
    FAIL() << "expected util::DataError";
  } catch (const util::DataError& e) {
    EXPECT_NE(std::string(e.what()).find("different graph"),
              std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(Resume, WrongSeedOrVariantRejected) {
  const auto g = planted(5);
  const auto config = small_config(sbp::Variant::Metropolis);
  const std::string path = temp_path("wrong_config.ckpt");
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  sbp::run(g.graph, config, ck);

  ckpt::CheckpointConfig resume;
  resume.resume_path = path;
  auto reseeded = config;
  reseeded.seed += 1;
  EXPECT_THROW(sbp::run(g.graph, reseeded, resume), util::DataError);
  auto revariant = config;
  revariant.variant = sbp::Variant::Hybrid;
  EXPECT_THROW(sbp::run(g.graph, revariant, resume), util::DataError);
  fs::remove(path);
}

TEST(Resume, ThreadBudgetMismatchRejected) {
  const auto g = planted(5);
  const auto config = small_config(sbp::Variant::Metropolis);
  const std::string path = temp_path("wrong_threads.ckpt");
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  sbp::run(g.graph, config, ck);

  auto rethreaded = config;
  rethreaded.num_threads = 2;
  ckpt::CheckpointConfig resume;
  resume.resume_path = path;
  try {
    sbp::run(g.graph, rethreaded, resume);
    FAIL() << "expected util::DataError";
  } catch (const util::DataError& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

// ------------------------------------------------------ sample pipeline

sample::SampleConfig sample_config(sbp::Variant variant) {
  sample::SampleConfig config;
  config.base = small_config(variant);
  config.fraction = 0.5;
  config.finetune_max_iterations = 5;
  return config;
}

void expect_identical_pipeline(const sample::SamplePipelineResult& resumed,
                               const sample::SamplePipelineResult& baseline,
                               const std::string& tag) {
  EXPECT_EQ(resumed.assignment, baseline.assignment) << tag;
  EXPECT_EQ(resumed.num_blocks, baseline.num_blocks) << tag;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed.mdl),
            std::bit_cast<std::uint64_t>(baseline.mdl))
      << tag << ": mdl " << resumed.mdl << " vs " << baseline.mdl;
  EXPECT_EQ(resumed.frontier_assigned, baseline.frontier_assigned) << tag;
}

// The subgraph fit's sbp-run snapshot is the pipeline's only durable
// state, so its phase boundaries are the pipeline's only kill points:
// a kill at any of them must resume to the uninterrupted answer, the
// last one included (a finished search, which the resume returns from
// at once before replaying extrapolation and fine-tune).
enum class KillPoints { InsideFit, AfterFit };

void kill_pipeline_and_resume(sbp::Variant variant, KillPoints points,
                              const std::string& file) {
  const auto g = planted(7);
  const std::string path = temp_path(file);
  const auto config = sample_config(variant);
  const auto baseline = sample::run(g.graph, config);

  ckpt::FaultInjector probe;
  ckpt::CheckpointConfig probe_ck;
  probe_ck.fault = &probe;
  sample::run(g.graph, config, probe_ck);
  const int phases = probe.phases_seen();
  ASSERT_GE(phases, 2);  // at least one boundary inside the fit

  // Every boundary before the fit's last, or the last one only.
  const int first = points == KillPoints::InsideFit ? 1 : phases;
  const int last = points == KillPoints::InsideFit ? phases - 1 : phases;
  for (int kill_at = first; kill_at <= last; ++kill_at) {
    const std::string tag = std::string(sbp::variant_name(variant)) +
                            " kill at " + std::to_string(kill_at) + " of " +
                            std::to_string(phases);
    fs::remove(path);
    ckpt::FaultInjector fault;
    fault.kill_at_phase(kill_at);
    ckpt::CheckpointConfig ck;
    ck.save_path = path;
    ck.fault = &fault;
    EXPECT_THROW(sample::run(g.graph, config, ck), ckpt::SimulatedKill)
        << tag;
    ASSERT_TRUE(fs::exists(path)) << tag;

    // This resume only reads: a snapshot write never feeds back into
    // the chain, and the fsyncs are nearly all of this test's time.
    // It must continue from the kill, not start the fit over.
    ckpt::FaultInjector counter;
    ckpt::CheckpointConfig resume;
    resume.resume_path = path;
    resume.fault = &counter;
    const auto resumed = sample::run(g.graph, config, resume);
    EXPECT_FALSE(resumed.interrupted) << tag;
    EXPECT_EQ(counter.phases_seen(), phases - kill_at) << tag;
    expect_identical_pipeline(resumed, baseline, tag);
  }
  fs::remove(path);
}

TEST(SamplePipeline, KillDuringSubgraphFitResumes) {
  kill_pipeline_and_resume(sbp::Variant::Hybrid, KillPoints::InsideFit,
                           "sample_kill_fit.ckpt");
}

// The partition stage ends with the fit's last boundary.
TEST(SamplePipeline, KillAfterPartitionStageResumes) {
  for (const sbp::Variant variant :
       {sbp::Variant::Hybrid, sbp::Variant::Metropolis}) {
    kill_pipeline_and_resume(variant, KillPoints::AfterFit,
                             "sample_kill_stage.ckpt");
  }
}

TEST(SamplePipeline, GracefulShutdownResumesToSameAnswer) {
  const auto g = planted(7);
  const auto config = sample_config(sbp::Variant::Hybrid);
  const auto baseline = sample::run(g.graph, config);

  const std::string path = temp_path("sample_shutdown.ckpt");
  fs::remove(path);
  ckpt::clear_shutdown();
  ckpt::request_shutdown();
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  const auto partial = sample::run(g.graph, config, ck);
  ckpt::clear_shutdown();

  EXPECT_TRUE(partial.interrupted);
  // Cut at the fit's first boundary, and still a full-graph partition.
  EXPECT_EQ(partial.sample_result.stats.outer_iterations, 1);
  EXPECT_EQ(partial.assignment.size(),
            static_cast<std::size_t>(g.graph.num_vertices()));
  ASSERT_TRUE(fs::exists(path));

  ckpt::FaultInjector counter;
  ckpt::CheckpointConfig resume;
  resume.save_path = path;
  resume.resume_path = path;
  resume.fault = &counter;
  const auto resumed = sample::run(g.graph, config, resume);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(counter.phases_seen(),
            baseline.sample_result.stats.outer_iterations - 1);
  expect_identical_pipeline(resumed, baseline, "graceful shutdown");
  fs::remove(path);
}

TEST(SamplePipeline, MissingResumeFileThrowsIoError) {
  const auto g = planted(7);
  ckpt::CheckpointConfig resume;
  resume.resume_path = temp_path("sample_absent.ckpt");
  EXPECT_THROW(
      sample::run(g.graph, sample_config(sbp::Variant::Metropolis), resume),
      util::IoError);
}

TEST(SamplePipeline, WrongSamplerConfigRejected) {
  const auto g = planted(7);
  auto config = sample_config(sbp::Variant::Metropolis);
  const std::string path = temp_path("sample_config.ckpt");
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  sample::run(g.graph, config, ck);

  config.sampler = sample::SamplerKind::UniformRandom;
  ckpt::CheckpointConfig resume;
  resume.resume_path = path;
  EXPECT_THROW(sample::run(g.graph, config, resume), util::DataError);
  fs::remove(path);
}

// The replay must continue the same chain: the fit's snapshot refuses
// another variant or thread budget (the RNG stream count) on the same
// sample, and another seed, which also draws another sample.
TEST(SamplePipeline, WrongVariantSeedOrThreadsRejected) {
  const auto g = planted(7);
  const auto config = sample_config(sbp::Variant::Metropolis);
  const std::string path = temp_path("sample_chain.ckpt");
  ckpt::CheckpointConfig ck;
  ck.save_path = path;
  sample::run(g.graph, config, ck);

  ckpt::CheckpointConfig resume;
  resume.resume_path = path;
  auto revariant = config;
  revariant.base.variant = sbp::Variant::Hybrid;
  EXPECT_THROW(sample::run(g.graph, revariant, resume), util::DataError);
  auto reseeded = config;
  reseeded.base.seed += 1;
  EXPECT_THROW(sample::run(g.graph, reseeded, resume), util::DataError);
  auto rethreaded = config;
  rethreaded.base.num_threads = 2;
  try {
    sample::run(g.graph, rethreaded, resume);
    FAIL() << "expected util::DataError";
  } catch (const util::DataError& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

}  // namespace
}  // namespace hsbp
