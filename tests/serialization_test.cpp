// Round-trip tests for the binary model serialization layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "core/presence.h"
#include "ml/knn.h"
#include "ml/scaler.h"
#include "ml/svm.h"
#include "nn/layers.h"
#include "nn/supervised_autoencoder.h"
#include "util/binary_io.h"
#include "util/error.h"

namespace fs {
namespace {

// ---------- primitives ----------

TEST(BinaryIo, ScalarsRoundTrip) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("TEST");
  writer.u64(42);
  writer.i64(-7);
  writer.f64(3.25);
  writer.str("hello");
  writer.f64_vector({1.0, 2.0});
  writer.i32_vector({-1, 5});

  util::BinaryReader reader(stream);
  reader.expect_tag("TEST");
  EXPECT_EQ(reader.u64(), 42u);
  EXPECT_EQ(reader.i64(), -7);
  EXPECT_DOUBLE_EQ(reader.f64(), 3.25);
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_EQ(reader.f64_vector(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(reader.i32_vector(), (std::vector<int>{-1, 5}));
}

TEST(BinaryIo, Crc32KnownVector) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(util::crc32(data, 9), 0xCBF43926u);
  // Seeded continuation equals the one-shot over the concatenation.
  const std::uint32_t first = util::crc32(data, 4);
  EXPECT_EQ(util::crc32(data + 4, 5, first), 0xCBF43926u);
  util::Crc32 incremental;
  incremental.update(data, 3);
  incremental.update(data + 3, 6);
  EXPECT_EQ(incremental.value(), 0xCBF43926u);
}

TEST(BinaryIo, CrcRegionRoundTrip) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("HDRX");
  writer.crc_begin();
  writer.u64(77);
  writer.str("payload");
  writer.f64_vector({1.5, -2.5});
  const std::uint32_t written = writer.crc_end();

  util::BinaryReader reader(stream);
  reader.expect_tag("HDRX");
  reader.crc_begin();
  EXPECT_EQ(reader.u64(), 77u);
  EXPECT_EQ(reader.str(), "payload");
  EXPECT_EQ(reader.f64_vector(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(reader.crc_end(), written);
}

TEST(BinaryIo, CrcRegionDetectsBitFlip) {
  std::stringstream stream;
  {
    util::BinaryWriter writer(stream);
    writer.crc_begin();
    writer.u64(77);
    writer.str("payload");
    writer.crc_end();
  }
  std::string bytes = stream.str();
  // Layout: u64 value (8 bytes), string length (8 bytes), then the chars;
  // flip a bit inside the character payload so every field still parses.
  bytes[17] ^= 0x40;
  std::istringstream corrupted(bytes);
  util::BinaryReader reader(corrupted);
  reader.crc_begin();
  reader.u64();
  reader.str();
  EXPECT_THROW(reader.crc_end(), CorruptCheckpoint);
}

TEST(BinaryIo, TagMismatchThrows) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("AAAA");
  util::BinaryReader reader(stream);
  EXPECT_THROW(reader.expect_tag("BBBB"), std::runtime_error);
}

TEST(BinaryIo, TruncatedStreamThrows) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.u64(1);
  util::BinaryReader reader(stream);
  reader.u64();
  EXPECT_THROW(reader.u64(), std::runtime_error);
}

// ---------- nn ----------

TEST(Serialization, DenseRoundTripPreservesInference) {
  util::Rng rng(3);
  nn::Dense layer(4, 3, nn::Activation::kTanh, rng);
  nn::Matrix x(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  layer.save(writer);
  util::BinaryReader reader(stream);
  const nn::Dense loaded = nn::Dense::load(reader);

  const nn::Matrix before = layer.infer(x);
  const nn::Matrix after = loaded.infer(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
  EXPECT_EQ(loaded.activation(), nn::Activation::kTanh);
}

// rows * cols wraps to 0 for rows = 2, cols = 2^63, so an empty weight
// vector would satisfy an unguarded size check.
TEST(Serialization, DenseRejectsWrappingShape) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("DNSE");
  writer.u64(2);
  writer.u64(std::uint64_t{1} << 63);
  writer.u64(static_cast<std::uint64_t>(nn::Activation::kIdentity));
  writer.f64_vector({});
  writer.f64_vector({0.0, 0.0});
  util::BinaryReader reader(stream);
  EXPECT_THROW(nn::Dense::load(reader), std::runtime_error);
}

TEST(Serialization, MlpRoundTrip) {
  util::Rng rng(5);
  nn::Mlp mlp({3, 8, 2}, nn::Activation::kRelu, nn::Activation::kIdentity,
              rng);
  nn::Matrix x(4, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  mlp.save(writer);
  util::BinaryReader reader(stream);
  const nn::Mlp loaded = nn::Mlp::load(reader);

  const nn::Matrix before = mlp.infer(x);
  const nn::Matrix after = loaded.infer(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
}

TEST(Serialization, SupervisedAutoencoderRoundTrip) {
  util::Rng rng(7);
  nn::AutoencoderConfig cfg;
  cfg.encoder_dims = {10, 6, 3};
  cfg.epochs = 10;
  nn::SupervisedAutoencoder ae(cfg);
  nn::Matrix x(32, 10);
  std::vector<int> y(32);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  ae.train(x, y);

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  ae.save(writer);
  util::BinaryReader reader(stream);
  const nn::SupervisedAutoencoder loaded =
      nn::SupervisedAutoencoder::load(reader);

  EXPECT_EQ(loaded.input_dim(), ae.input_dim());
  EXPECT_EQ(loaded.code_dim(), ae.code_dim());
  const auto before = ae.predict_proba(x);
  const auto after = loaded.predict_proba(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  const nn::Matrix code_before = ae.encode(x);
  const nn::Matrix code_after = loaded.encode(x);
  for (std::size_t i = 0; i < code_before.size(); ++i)
    EXPECT_DOUBLE_EQ(code_before.data()[i], code_after.data()[i]);
}

// ---------- ml ----------

TEST(Serialization, ScalerRoundTrip) {
  ml::StandardScaler scaler;
  scaler.fit(nn::Matrix::from_rows({{1, 10}, {3, 20}, {5, 60}}));
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  scaler.save(writer);
  util::BinaryReader reader(stream);
  const ml::StandardScaler loaded = ml::StandardScaler::load(reader);
  EXPECT_EQ(loaded.mean(), scaler.mean());
  EXPECT_EQ(loaded.stddev(), scaler.stddev());
}

TEST(Serialization, KnnRoundTrip) {
  util::Rng rng(11);
  nn::Matrix x(30, 4);
  std::vector<int> y(30);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  ml::KnnClassifier knn(5);
  knn.fit(x, y);

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  knn.save(writer);
  util::BinaryReader reader(stream);
  const ml::KnnClassifier loaded = ml::KnnClassifier::load(reader);
  EXPECT_EQ(loaded.k(), 5u);
  const auto before = knn.predict_proba(x);
  const auto after = loaded.predict_proba(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(Serialization, SvmRoundTripWithCalibration) {
  util::Rng rng(13);
  nn::Matrix x(60, 3);
  std::vector<int> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < 3; ++c)
      x(i, c) = rng.normal(y[i] ? 1.0 : -1.0, 0.8);
  }
  ml::SvmClassifier svm;
  svm.fit(x, y);
  svm.calibrate(x, y);

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  svm.save(writer);
  util::BinaryReader reader(stream);
  const ml::SvmClassifier loaded = ml::SvmClassifier::load(reader);
  EXPECT_TRUE(loaded.trained());
  EXPECT_TRUE(loaded.calibrated());
  EXPECT_EQ(loaded.support_vector_count(), svm.support_vector_count());
  const auto before = svm.predict_proba(x);
  const auto after = loaded.predict_proba(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(Serialization, SvmRejectsWrappingShape) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  writer.tag("SVM0");
  writer.f64(1.0);                    // gamma
  writer.f64(0.0);                    // bias
  writer.u64(2);                      // support rows
  writer.u64(std::uint64_t{1} << 63);  // support cols: 2 * 2^63 wraps to 0
  writer.f64_vector({});
  writer.f64_vector({1.0, -1.0});     // alpha_y, one per support row
  writer.u64(1);
  writer.u64(0);
  writer.f64(-1.0);
  writer.f64(0.0);
  util::BinaryReader reader(stream);
  EXPECT_THROW(ml::SvmClassifier::load(reader), std::runtime_error);
}

// ---------- core ----------

TEST(Serialization, PresenceModelRoundTrip) {
  util::Rng rng(17);
  const std::size_t dim = 40;
  nn::Matrix x(80, dim);
  std::vector<int> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < dim; ++c)
      x(i, c) = std::log1p(
          (y[i] && c > dim / 2 ? 1.0 : 0.0) + (rng.uniform() < 0.2));
  }
  core::PresenceModelConfig cfg;
  cfg.feature_dim = 8;
  cfg.epochs = 8;
  core::PresenceModel model(cfg);
  model.train(x, y);

  std::stringstream stream;
  util::BinaryWriter writer(stream);
  model.save(writer);
  util::BinaryReader reader(stream);
  const core::PresenceModel loaded = core::PresenceModel::load(reader);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.feature_dim(), model.feature_dim());
  const auto before = model.predict_proba(x);
  const auto after = loaded.predict_proba(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(Serialization, UntrainedModelRefusesToSave) {
  core::PresenceModel model(core::PresenceModelConfig{});
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  EXPECT_THROW(model.save(writer), std::logic_error);
}

}  // namespace
}  // namespace fs
