// fs::scenario: config parsing/validation, grid expansion, runner
// determinism, the defense=none differential against a direct attack
// invocation, and the artifact validate/diff contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "eval/digest.h"
#include "eval/harness.h"
#include "obs/json.h"
#include "scenario/artifact.h"
#include "scenario/config.h"
#include "scenario/options.h"
#include "scenario/runner.h"
#include "util/error.h"

namespace fs {
namespace {

namespace json = obs::json;
using scenario::ScenarioConfig;

/// A micro world every run-based test shares: seconds, not minutes.
constexpr const char* kMicroWorld =
    R"({"preset": "tiny", "users": 40, "pois": 120, "weeks": 2})";

ScenarioConfig micro_config(const std::string& defense_axis) {
  return scenario::parse_scenario_config_text(
      std::string(R"({"name": "micro", "axes": {"world": [)") + kMicroWorld +
      R"(], "defense": )" + defense_axis + "}}");
}

// ---- OptionReader ----

TEST(ScenarioOptions, RejectsUnknownKeysNamingThem) {
  const json::Value doc = json::parse(R"({"rate": 0.2, "rtae": 0.3})");
  scenario::OptionReader reader(doc, "defense axis element 0");
  reader.get_number("rate", 0.0, 0.0, 1.0);
  try {
    reader.finish();
    FAIL() << "unknown key not rejected";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'rtae'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("defense axis element 0"),
              std::string::npos)
        << e.what();
    // The error lists the accepted spelling set, so the fix is in the
    // message.
    EXPECT_NE(std::string(e.what()).find("rate"), std::string::npos);
  }
}

TEST(ScenarioOptions, TypeAndRangeChecked) {
  const json::Value doc =
      json::parse(R"({"a": "x", "b": 1.5, "c": 2.25, "d": 1})");
  scenario::OptionReader reader(doc, "test");
  EXPECT_THROW(reader.get_number("a", 0, 0, 1), ParseError);
  EXPECT_THROW(reader.get_number("b", 0, 0, 1), ParseError);
  EXPECT_THROW(reader.get_int("c", 0, 0, 10), ParseError);
  EXPECT_THROW(reader.get_bool("d", false), ParseError);
  EXPECT_THROW(reader.get_enum("a", "y", {"y", "z"}), ParseError);
}

// ---- Config parsing ----

TEST(ScenarioConfigTest, ParsesAndRoundTrips) {
  const std::string text = R"({
    "schema": "fs-scenario-config", "schema_version": 1,
    "name": "rt", "seed": 11,
    "axes": {
      "world": [{"preset": "gowalla", "users": 50, "cyber_fraction": 0.4}],
      "defense": [{"mechanism": "hiding", "rate": 0.25},
                  {"mechanism": "blur-cross", "rate": 0.3, "grid_sigma": 60}],
      "attack": [{"blocking": "on", "threads": 2}],
      "model": [{"tau_days": 3.5, "slot_tolerance": 1,
                 "predicate": "cooccur"}],
      "dynamics": [{"drift": 0.5}]
    },
    "tolerance": {"f1": 0.05}
  })";
  const ScenarioConfig config = scenario::parse_scenario_config_text(text);
  EXPECT_EQ(config.name, "rt");
  EXPECT_EQ(config.seed, 11u);
  ASSERT_EQ(config.defenses.size(), 2u);
  EXPECT_EQ(config.defenses[0].mechanism,
            scenario::DefenseMechanism::kHiding);
  EXPECT_DOUBLE_EQ(config.defenses[0].rate, 0.25);
  EXPECT_EQ(config.defenses[1].grid_sigma, 60u);
  EXPECT_EQ(config.attacks[0].blocking, block::BlockingMode::kOn);
  EXPECT_EQ(config.attacks[0].threads, 2u);
  EXPECT_EQ(config.models[0].predicate,
            scenario::CandidatePredicate::kCooccur);
  EXPECT_DOUBLE_EQ(config.dynamics[0].drift, 0.5);
  EXPECT_DOUBLE_EQ(config.tolerance.f1, 0.05);
  EXPECT_DOUBLE_EQ(config.tolerance.auc, 0.08);  // untouched default

  // Normalized dump -> parse -> dump is a fixed point.
  const std::string once = scenario::scenario_config_to_json(config).dump(2);
  const ScenarioConfig reparsed =
      scenario::parse_scenario_config(json::parse(once));
  EXPECT_EQ(scenario::scenario_config_to_json(reparsed).dump(2), once);
  EXPECT_EQ(scenario::config_fingerprint(config),
            scenario::config_fingerprint(reparsed));
}

TEST(ScenarioConfigTest, MissingAxesDefaultToIdentity) {
  const ScenarioConfig config =
      scenario::parse_scenario_config_text(R"({"name": "bare"})");
  EXPECT_EQ(scenario::expand_grid(config).size(), 1u);
  const auto cells = scenario::expand_grid(config);
  EXPECT_EQ(scenario::defense_label(cells[0].defense), "none");
}

TEST(ScenarioConfigTest, RejectsUnknownKeysEverywhere) {
  EXPECT_THROW(scenario::parse_scenario_config_text(R"({"nmae": "x"})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"wrold": []}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"defense": [{"mechnism": "hiding"}]}})"),
               ParseError);
  // The attack axis accepts only blocking, label and threads.
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"attack": [{"shards": 2}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"attack": [{"knn_quantize": true}]}})"),
               ParseError);
}

TEST(ScenarioConfigTest, RejectsOutOfRangeAndBadEnums) {
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"defense": [{"rate": 1.5}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"dynamics": [{"drift": -0.1}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"world": [{"users": 7.5}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"world": [{"preset": "foursquare"}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"attack": [{"blocking": "maybe"}]}})"),
               ParseError);
  EXPECT_THROW(
      scenario::parse_scenario_config_text(R"({"schema": "fs-other"})"),
      ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"defense": []}})"),
               ParseError);
}

TEST(ScenarioConfigTest, GridIsAxisCardinalityProduct) {
  const ScenarioConfig config = scenario::parse_scenario_config_text(R"({
    "axes": {
      "world": [{"preset": "tiny"}, {"preset": "gowalla"}],
      "defense": [{"mechanism": "none"}, {"mechanism": "hiding", "rate": 0.2},
                  {"mechanism": "hiding", "rate": 0.4}],
      "attack": [{"blocking": "on"}, {"blocking": "off"}],
      "model": [{}, {"tau_days": 3.5}]
    }
  })");
  const auto cells = scenario::expand_grid(config);
  ASSERT_EQ(cells.size(), 2u * 3u * 2u * 2u * 1u);  // 24

  // World-major order, dynamics innermost, ids unique, index == position.
  EXPECT_EQ(scenario::world_label(cells[0].world), "tiny");
  EXPECT_EQ(scenario::world_label(cells[11].world), "tiny");
  EXPECT_EQ(scenario::world_label(cells[12].world), "gowalla");
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    ids.push_back(cells[i].id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// ---- Runner determinism ----

TEST(ScenarioRunner, FingerprintsAndResultsStableAcrossRunsAndThreads) {
  const ScenarioConfig config = micro_config(
      R"([{"mechanism": "none"}, {"mechanism": "hiding", "rate": 0.3}])");

  scenario::RunOptions one_thread;
  one_thread.threads = 1;
  scenario::RunOptions three_threads;
  three_threads.threads = 3;

  const scenario::MatrixResult a = scenario::run_scenario(config, one_thread);
  const scenario::MatrixResult b = scenario::run_scenario(config, one_thread);
  const scenario::MatrixResult c =
      scenario::run_scenario(config, three_threads);

  ASSERT_EQ(a.cells.size(), 2u);
  ASSERT_EQ(b.cells.size(), 2u);
  ASSERT_EQ(c.cells.size(), 2u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    // Cell fingerprints are pure functions of the coordinate.
    EXPECT_EQ(a.cells[i].fingerprint, b.cells[i].fingerprint);
    EXPECT_EQ(a.cells[i].fingerprint, c.cells[i].fingerprint);
    // Full results are byte-identical across runs AND thread counts (the
    // deterministic-parallelism contract, surfaced through the runner).
    EXPECT_EQ(a.cells[i].result_digest, b.cells[i].result_digest);
    EXPECT_EQ(a.cells[i].result_digest, c.cells[i].result_digest);
    EXPECT_EQ(a.cells[i].final_graph_digest, c.cells[i].final_graph_digest);
    EXPECT_DOUBLE_EQ(a.cells[i].quality.f1, c.cells[i].quality.f1);
    EXPECT_DOUBLE_EQ(a.cells[i].quality.auc, c.cells[i].quality.auc);
  }
  EXPECT_EQ(a.config_fp, c.config_fp);
}

// ---- Differential: a grid cell == a direct attack invocation ----

TEST(ScenarioRunner, DefenseNoneCellMatchesDirectInvocation) {
  // The none cell runs SECOND, after hiding has warmed the shared feature
  // cache — pinning that cross-cell cache reuse cannot leak stale features
  // (the cache signature must invalidate on the dataset change).
  const ScenarioConfig config = micro_config(
      R"([{"mechanism": "hiding", "rate": 0.3}, {"mechanism": "none"}])");
  const scenario::MatrixResult matrix = scenario::run_scenario(config);
  ASSERT_EQ(matrix.cells.size(), 2u);
  const scenario::CellResult& none_cell = matrix.cells[1];
  ASSERT_EQ(scenario::defense_label(none_cell.cell.defense), "none");

  // Direct invocation: same resolution helpers, fresh run-local cache.
  const eval::Experiment experiment = eval::make_experiment(
      scenario::resolve_world(none_cell.cell.world, config.seed), {}, 0.7,
      scenario::split_seed(config.seed));
  const core::FriendSeekerConfig seeker = scenario::resolve_seeker(
      none_cell.cell.world, none_cell.cell.attack, none_cell.cell.model,
      config.seed);
  eval::FriendSeekerAttack attack(seeker);
  const std::vector<int> predictions = attack.infer(
      experiment.dataset, experiment.split.train_pairs,
      experiment.split.train_labels, experiment.split.test_pairs);

  EXPECT_EQ(none_cell.result_digest,
            eval::result_digest(attack.last_result()));
  EXPECT_EQ(none_cell.final_graph_digest,
            eval::graph_digest(attack.last_result().final_graph));
  const scenario::CellQuality direct = scenario::compute_quality(
      experiment.split.test_labels, predictions,
      attack.last_result().test_scores);
  EXPECT_DOUBLE_EQ(none_cell.quality.f1, direct.f1);
  EXPECT_DOUBLE_EQ(none_cell.quality.auc, direct.auc);
  EXPECT_DOUBLE_EQ(none_cell.quality.precision_at_k, direct.precision_at_k);
}

// ---- Artifact validation and diff ----

class ScenarioArtifactTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ScenarioConfig config = micro_config(
        R"([{"mechanism": "none"}, {"mechanism": "hiding", "rate": 0.3}])");
    matrix_ = new scenario::MatrixResult(scenario::run_scenario(config));
  }
  static void TearDownTestSuite() {
    delete matrix_;
    matrix_ = nullptr;
  }

  static scenario::MatrixResult* matrix_;
};

scenario::MatrixResult* ScenarioArtifactTest::matrix_ = nullptr;

TEST_F(ScenarioArtifactTest, EmittedArtifactValidates) {
  const json::Value doc = scenario::matrix_to_json(*matrix_);
  EXPECT_NO_THROW(scenario::validate_matrix(doc));
  EXPECT_EQ(doc.at("schema").as_string(), scenario::kMatrixSchema);
  EXPECT_EQ(doc.at("cells").as_array().size(), matrix_->cells.size());
}

TEST_F(ScenarioArtifactTest, ValidatorRejectsStructuralDamage) {
  json::Value doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["schema"] = "fs-other";
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);

  doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["cell_count"] = 99;
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);

  doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["cells"].as_array()[0].as_object()["quality"].as_object()
      ["f1"] = 1.7;
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);

  doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["cells"].as_array()[0].as_object()["scored_pairs"] =
      12345678;
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);

  doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["cells"].as_array().erase(
      doc.as_object()["cells"].as_array().begin());
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);
}

TEST_F(ScenarioArtifactTest, SelfDiffIsClean) {
  const json::Value doc = scenario::matrix_to_json(*matrix_);
  const scenario::DiffReport report = scenario::diff_matrices(doc, doc);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.notes.empty());
}

TEST_F(ScenarioArtifactTest, DiffFlagsOutOfBandQualityDrift) {
  const json::Value base = scenario::matrix_to_json(*matrix_);
  json::Value drifted = base;
  json::Object& cell =
      drifted.as_object()["cells"].as_array()[0].as_object();
  const double f1 = cell["quality"].as_object()["f1"].as_number();
  cell["quality"].as_object()["f1"] =
      f1 > 0.5 ? f1 - 0.2 : f1 + 0.2;  // beyond the 0.08 band, inside [0,1]

  const scenario::DiffReport report = scenario::diff_matrices(base, drifted);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("f1"), std::string::npos);

  // A widened band (CI's cross-toolchain mode) absorbs the same delta.
  scenario::DiffOptions wide;
  wide.tolerance_scale = 4.0;
  EXPECT_TRUE(scenario::diff_matrices(base, drifted, wide).ok());
}

TEST_F(ScenarioArtifactTest, DiffFlagsDigestAndPairingDamage) {
  const json::Value base = scenario::matrix_to_json(*matrix_);

  json::Value mutated = base;
  mutated.as_object()["cells"].as_array()[0].as_object()
      ["final_graph_digest"] = "deadbeefdeadbeef";
  EXPECT_FALSE(scenario::diff_matrices(base, mutated).ok());
  // Same mutation with lenient digests: a note, not a failure.
  scenario::DiffOptions lenient;
  lenient.lenient_digests = true;
  const scenario::DiffReport soft =
      scenario::diff_matrices(base, mutated, lenient);
  EXPECT_TRUE(soft.ok());
  EXPECT_FALSE(soft.notes.empty());
  // A foreign toolchain also downgrades digests to notes.
  mutated.as_object()["toolchain"] = "other-compiler";
  EXPECT_TRUE(scenario::diff_matrices(base, mutated).ok());

  json::Value missing = base;
  missing.as_object()["cells"].as_array().pop_back();
  missing.as_object()["cell_count"] =
      missing.at("cells").as_array().size();
  const scenario::DiffReport report = scenario::diff_matrices(base, missing);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("missing"), std::string::npos);
}

}  // namespace
}  // namespace fs
