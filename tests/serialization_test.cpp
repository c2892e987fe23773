// Round-trip tests for the binary model serialization layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

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
  std::string bytes;
  util::BinaryWriter writer(bytes);
  writer.tag("TEST");
  writer.u64(42);
  writer.i64(-7);
  writer.f64(3.25);
  writer.str("hello");
  writer.f64_vector({1.0, 2.0});
  writer.i32_vector({-1, 5});

  util::BinaryReader reader(bytes);
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
}

std::string sample_body() {
  std::string body;
  util::BinaryWriter writer(body);
  writer.u64(77);
  writer.str("payload");
  writer.f64_vector({1.5, -2.5});
  return body;
}

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += digits[c >> 4];
    out += digits[c & 15];
  }
  return out;
}

TEST(BinaryIo, SealRoundTrip) {
  const std::string sealed = util::seal("HDRX", 3, sample_body());
  util::BinaryReader reader(util::unseal(sealed, "HDRX", 3));
  EXPECT_EQ(reader.u64(), 77u);
  EXPECT_EQ(reader.str(), "payload");
  EXPECT_EQ(reader.f64_vector(), (std::vector<double>{1.5, -2.5}));
  EXPECT_NO_THROW(reader.expect_end());
}

// The sealed layout is an on-disk format: files already written must keep
// loading, so these bytes for this tag, version and body never change.
TEST(BinaryIo, SealBytesArePinned) {
  EXPECT_EQ(hex(util::seal("HDRX", 3, sample_body())),
            "4844525803000000000000004d00000000000000070000000000000070617"
            "96c6f61640200000000000000000000000000f83f00000000000004c00d48"
            "bfa700000000");
}

TEST(BinaryIo, UnsealRejectsEveryDamagedFrame) {
  const std::string sealed = util::seal("HDRX", 3, sample_body());
  // Flip a bit inside the string's characters: every field would still
  // parse, only the CRC can tell.
  std::string flipped = sealed;
  flipped[12 + 17] ^= 0x40;
  EXPECT_THROW(util::unseal(flipped, "HDRX", 3), CorruptCheckpoint);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{11},
                                 std::size_t{19}, sealed.size() - 1}) {
    const std::string truncated = sealed.substr(0, keep);
    EXPECT_THROW(util::unseal(truncated, "HDRX", 3), CorruptCheckpoint)
        << keep;
  }
  EXPECT_THROW(util::unseal(sealed, "HDRY", 3), CorruptCheckpoint);
  EXPECT_THROW(util::unseal(sealed, "HDRX", 4), CorruptCheckpoint);
  const std::string trailing = sealed + std::string(1, '\0');
  EXPECT_THROW(util::unseal(trailing, "HDRX", 3), CorruptCheckpoint);
}

TEST(BinaryIo, UnreadTrailingBytesAreRejected) {
  const std::string body = sample_body();
  util::BinaryReader reader(body);
  reader.u64();
  reader.str();
  EXPECT_THROW(reader.expect_end(), std::runtime_error);
  reader.f64_vector();
  EXPECT_NO_THROW(reader.expect_end());
}

TEST(BinaryIo, TagMismatchThrows) {
  std::string bytes;
  util::BinaryWriter writer(bytes);
  writer.tag("AAAA");
  util::BinaryReader reader(bytes);
  EXPECT_THROW(reader.expect_tag("BBBB"), std::runtime_error);
}

TEST(BinaryIo, TruncatedStreamThrows) {
  std::string bytes;
  util::BinaryWriter writer(bytes);
  writer.u64(1);
  util::BinaryReader reader(bytes);
  reader.u64();
  EXPECT_THROW(reader.u64(), std::runtime_error);
}

// ---------- nn ----------

TEST(Serialization, DenseRoundTripPreservesInference) {
  util::Rng rng(3);
  nn::Dense layer(4, 3, nn::Activation::kTanh, rng);
  nn::Matrix x(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();

  std::string bytes;
  util::BinaryWriter writer(bytes);
  layer.save(writer);
  util::BinaryReader reader(bytes);
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
  std::string bytes;
  util::BinaryWriter writer(bytes);
  writer.tag("DNSE");
  writer.u64(2);
  writer.u64(std::uint64_t{1} << 63);
  writer.u64(static_cast<std::uint64_t>(nn::Activation::kIdentity));
  writer.f64_vector({});
  writer.f64_vector({0.0, 0.0});
  util::BinaryReader reader(bytes);
  EXPECT_THROW(nn::Dense::load(reader), std::runtime_error);
}

// The activation is a raw u64 on disk: anything past the last enumerator
// must fail at load, not at the first infer.
TEST(Serialization, DenseRejectsUnknownActivation) {
  const auto load = [](std::uint64_t activation) {
    std::string bytes;
    util::BinaryWriter writer(bytes);
    writer.tag("DNSE");
    writer.u64(1);
    writer.u64(2);
    writer.u64(activation);
    writer.f64_vector({0.5, -0.5});
    writer.f64_vector({0.25});
    util::BinaryReader reader(bytes);
    return nn::Dense::load(reader);
  };
  for (std::uint64_t activation : {std::uint64_t{4}, std::uint64_t{9},
                                   ~std::uint64_t{0}})
    EXPECT_THROW(load(activation), std::runtime_error) << activation;
  const nn::Dense loaded =
      load(static_cast<std::uint64_t>(nn::Activation::kTanh));
  EXPECT_EQ(loaded.activation(), nn::Activation::kTanh);
  EXPECT_NO_THROW(loaded.infer(nn::Matrix(1, 2, 1.0)));
}

TEST(Serialization, MlpRoundTrip) {
  util::Rng rng(5);
  nn::Mlp mlp({3, 8, 2}, nn::Activation::kRelu, nn::Activation::kIdentity,
              rng);
  nn::Matrix x(4, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();

  std::string bytes;
  util::BinaryWriter writer(bytes);
  mlp.save(writer);
  util::BinaryReader reader(bytes);
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

  std::string bytes;
  util::BinaryWriter writer(bytes);
  ae.save(writer);
  util::BinaryReader reader(bytes);
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

// An SAE1 record with the given epochs/batch_size and otherwise valid
// fields (mirrors SupervisedAutoencoder::save field by field).
std::string autoencoder_record(std::int64_t epochs, std::uint64_t batch_size) {
  util::Rng rng(17);
  std::string bytes;
  util::BinaryWriter writer(bytes);
  writer.tag("SAE1");
  writer.u64(3);
  for (std::uint64_t d : {4, 3, 2}) writer.u64(d);
  writer.u64(1);
  writer.u64(4);
  writer.f64(0.005);  // learning_rate
  writer.f64(1.0);    // alpha
  writer.i64(epochs);
  writer.u64(batch_size);
  writer.u64(7);      // seed
  writer.u64(1);      // mean_reconstruction_loss
  writer.f64(5.0);    // gradient_clip
  writer.i64(2);      // retry.max_attempts
  writer.f64(0.5);    // retry_lr_backoff
  nn::Mlp({4, 3, 2}, nn::Activation::kRelu, nn::Activation::kIdentity, rng)
      .save(writer);
  nn::Mlp({2, 3, 4}, nn::Activation::kRelu, nn::Activation::kIdentity, rng)
      .save(writer);
  nn::Mlp({2, 4, 1}, nn::Activation::kRelu, nn::Activation::kIdentity, rng)
      .save(writer);
  return bytes;
}

TEST(Serialization, SupervisedAutoencoderRejectsBadBatchOrEpochs) {
  const auto load = [](const std::string& bytes) {
    util::BinaryReader reader(bytes);
    return nn::SupervisedAutoencoder::load(reader);
  };
  EXPECT_EQ(load(autoencoder_record(0, 1)).config().epochs, 0);
  EXPECT_EQ(load(autoencoder_record(20, 16)).config().batch_size, 16u);
  EXPECT_THROW(load(autoencoder_record(20, 0)), std::runtime_error);
  EXPECT_THROW(load(autoencoder_record(-1, 16)), std::runtime_error);
  EXPECT_THROW(load(autoencoder_record(std::int64_t{1} << 40, 16)),
               std::runtime_error);
}

// ---------- ml ----------

TEST(Serialization, ScalerRoundTrip) {
  ml::StandardScaler scaler;
  scaler.fit(nn::Matrix::from_rows({{1, 10}, {3, 20}, {5, 60}}));
  std::string bytes;
  util::BinaryWriter writer(bytes);
  scaler.save(writer);
  util::BinaryReader reader(bytes);
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

  std::string bytes;
  util::BinaryWriter writer(bytes);
  knn.save(writer);
  util::BinaryReader reader(bytes);
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

  std::string bytes;
  util::BinaryWriter writer(bytes);
  svm.save(writer);
  util::BinaryReader reader(bytes);
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
  std::string bytes;
  util::BinaryWriter writer(bytes);
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
  util::BinaryReader reader(bytes);
  EXPECT_THROW(ml::SvmClassifier::load(reader), std::runtime_error);
}

// rows * cols wraps to 2 for rows = 2, cols = 2^63 + 1: without the guard
// the classifier would load with a huge shape over two stored doubles.
TEST(Serialization, KnnRejectsWrappingShape) {
  std::string bytes;
  util::BinaryWriter writer(bytes);
  writer.tag("KNN0");
  writer.u64(1);                           // k
  writer.u64(2);                           // rows
  writer.u64((std::uint64_t{1} << 63) + 1);  // cols
  writer.f64_vector({0.0, 0.0});
  writer.i32_vector({0, 1});               // one label per row
  util::BinaryReader reader(bytes);
  EXPECT_THROW(ml::KnnClassifier::load(reader), std::runtime_error);
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

  std::string bytes;
  util::BinaryWriter writer(bytes);
  model.save(writer);
  util::BinaryReader reader(bytes);
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
  std::string bytes;
  util::BinaryWriter writer(bytes);
  EXPECT_THROW(model.save(writer), std::logic_error);
}

}  // namespace
}  // namespace fs
