#include "nn/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "nn/model_zoo.h"

namespace dlion::nn {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  // One file per case and process: ctest runs the cases as separate
  // processes, possibly at once, and each removes its file on teardown.
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "dlion_checkpoint_" + info->name() + "_" +
            std::to_string(::getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  common::Rng rng(1);
  BuiltModel original = make_cipher_lite(rng);
  save_checkpoint(original.model, path_);

  common::Rng rng2(999);  // different init
  BuiltModel restored = make_cipher_lite(rng2);
  load_checkpoint(restored.model, path_);

  const Snapshot a = original.model.weights();
  const Snapshot b = restored.model.weights();
  for (std::size_t v = 0; v < a.values.size(); ++v) {
    for (std::size_t i = 0; i < a.values[v].size(); ++i) {
      EXPECT_FLOAT_EQ(a.values[v][i], b.values[v][i]);
    }
  }
}

TEST_F(CheckpointTest, ArchitectureMismatchThrows) {
  common::Rng rng(1);
  BuiltModel cipher = make_cipher_lite(rng);
  save_checkpoint(cipher.model, path_);
  BuiltModel other = make_logistic_regression(rng, 8, 2);
  EXPECT_THROW(load_checkpoint(other.model, path_), std::invalid_argument);
}

TEST_F(CheckpointTest, MissingFileThrows) {
  common::Rng rng(1);
  BuiltModel bm = make_cipher_lite(rng);
  EXPECT_THROW(load_checkpoint(bm.model, path_ + ".does-not-exist"),
               std::runtime_error);
}

TEST_F(CheckpointTest, CorruptMagicThrows) {
  std::ofstream out(path_, std::ios::binary);
  out << "NOPE garbage";
  out.close();
  common::Rng rng(1);
  BuiltModel bm = make_cipher_lite(rng);
  EXPECT_THROW(load_checkpoint(bm.model, path_), std::runtime_error);
}

TEST_F(CheckpointTest, TruncatedFileThrows) {
  common::Rng rng(1);
  BuiltModel bm = make_cipher_lite(rng);
  save_checkpoint(bm.model, path_);
  // Truncate the file to half its size.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<char> data(size / 2);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  EXPECT_THROW(load_checkpoint(bm.model, path_), std::exception);
}

}  // namespace
}  // namespace dlion::nn
