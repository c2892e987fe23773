// Seeded mutation fuzzing of every decoder that reads bytes from outside
// the process: sealed checkpoints and snapshots, the stream journal, the
// FSN1 wire frame, the .fsst store, JSON, wire check-in lines and the SNAP
// loader. Each target starts from a valid input, applies bit flips,
// truncations, inserted bytes and length fields overwritten with extreme
// values, and requires the decoder to decode or fail in its documented way.
// Under the sanitizer build, a crash or an ASan/UBSan report fails the run.
//
// Fixed seeds and bounded iteration counts keep every run identical; the
// whole suite is sized to finish well inside a minute under ASan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/presence.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "net/frame.h"
#include "obs/json.h"
#include "store/convert.h"
#include "store/store.h"
#include "stream/event.h"
#include "stream/journal.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace fs {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fs_fuzz_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One random mutation of `seed`.
std::string mutate(const std::string& seed, util::Rng& rng) {
  static const std::uint64_t kExtremes[] = {
      0,
      1,
      0x7fffffffULL,
      0xffffffffULL,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 40,
      std::uint64_t{1} << 62,
      std::uint64_t{1} << 63,
      ~std::uint64_t{0}};
  std::string s = seed;
  const auto pos = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.next_u64(size + 1));
  };
  switch (rng.next_u64(4)) {
    case 0:  // bit flips
      if (s.empty()) break;
      for (std::uint64_t n = 1 + rng.next_u64(4); n > 0; --n)
        s[rng.next_u64(s.size())] ^= static_cast<char>(1u << rng.next_u64(8));
      break;
    case 1:  // truncation
      s.resize(pos(s.size()));
      break;
    case 2: {  // inserted bytes
      std::string junk(1 + rng.next_u64(8), '\0');
      for (char& c : junk) c = static_cast<char>(rng.next_u64(256));
      s.insert(pos(s.size()), junk);
      break;
    }
    default: {  // a length field overwritten with an extreme value
      const std::uint64_t value = kExtremes[rng.next_u64(std::size(kExtremes))];
      const std::size_t width = rng.next_u64(2) == 0 ? 4 : 8;
      if (s.size() < width) break;
      std::memcpy(s.data() + pos(s.size() - width), &value, width);
      break;
    }
  }
  return s;
}

/// Feeds `iterations` mutants of `seed` to `decode`, which must return
/// normally: it catches the decoder's documented failure itself, so any
/// other exception fails the test, naming the target and the mutant.
void fuzz(const std::string& target, const std::string& seed,
          std::uint64_t rng_seed, int iterations,
          const std::function<void(const std::string&)>& decode) {
  util::Rng rng(rng_seed);
  for (int i = 0; i < iterations; ++i) {
    const std::string input = mutate(seed, rng);
    try {
      decode(input);
    } catch (const std::exception& e) {
      ADD_FAILURE() << target << " mutant " << i << " (" << input.size()
                    << " bytes): undocumented " << e.what();
      return;
    }
  }
}

// ---------- sealed files ----------

std::string checkpoint_seed(const std::string& path) {
  util::Rng rng(17);
  const std::size_t dim = 12;
  nn::Matrix x(40, dim);
  std::vector<int> y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t c = 0; c < dim; ++c)
      x(i, c) = std::log1p((y[i] && c > dim / 2 ? 1.0 : 0.0) +
                           (rng.uniform() < 0.2));
  }
  core::PresenceModelConfig cfg;
  cfg.feature_dim = 4;
  cfg.epochs = 2;
  core::PipelineCheckpoint checkpoint;
  checkpoint.fingerprint = 0x1234;
  checkpoint.iteration = 3;
  checkpoint.predictions = {0, 1, 1, 0, 1};
  checkpoint.scores = {-1.5, 0.25, 2.0, -0.5, 1.0};
  checkpoint.presence.emplace(cfg);
  checkpoint.presence->train(x, y);
  core::save_pipeline_checkpoint(path, checkpoint);
  return util::read_file(path);
}

TEST(Fuzz, CheckpointFileAndBody) {
  const std::string path = fresh_dir("checkpoint") + "/checkpoint.fsck";
  const std::string seed = checkpoint_seed(path);
  ASSERT_EQ(core::load_pipeline_checkpoint(path).iteration, 3);
  const auto load = [&path](const std::string& bytes) {
    write_bytes(path, bytes);
    try {
      core::load_pipeline_checkpoint(path);
    } catch (const CorruptCheckpoint&) {
    }
  };
  fuzz("checkpoint file", seed, 1, 1600, load);
  // Resealed mutants of the body get past the CRC and reach every field
  // decoder, including the presence model's.
  const std::string body(util::unseal(seed, "FSCP", core::kCheckpointVersion));
  fuzz("checkpoint body", body, 2, 6000, [&](const std::string& mutant) {
    load(util::seal("FSCP", core::kCheckpointVersion, mutant));
  });
}

stream::RawEvent event(const std::string& line, std::uint64_t seq) {
  stream::RawEvent e;
  if (stream::parse_event_line(line, e)) ADD_FAILURE() << line;
  e.seq = seq;
  return e;
}

TEST(Fuzz, SnapshotFileAndBody) {
  const std::string path = fresh_dir("snapshot") + "/snapshot.fss";
  stream::Snapshot snapshot;
  snapshot.config_fingerprint = 0xfeed;
  snapshot.consumed_lines = 5;
  snapshot.shed_total = 1;
  snapshot.quarantine_counts[2] = 1;
  snapshot.events = {event("1\t2010-10-19T10:00:00Z\t30.25\t-97.75\t5", 0),
                     event("2\t2010-10-19T10:30:00Z\t30.25\t-97.75\t5\t9", 1),
                     event("3\t2010-10-19T11:00:00Z\t30.5\t-97.5\t6", 2)};
  stream::save_snapshot(path, snapshot);
  const std::string seed = util::read_file(path);
  ASSERT_TRUE(stream::load_snapshot(path, 0xfeed).has_value());
  // load_snapshot documents no exception: a bad file is nullopt.
  const auto load = [&path](const std::string& bytes) {
    write_bytes(path, bytes);
    stream::load_snapshot(path, 0xfeed);
  };
  fuzz("snapshot file", seed, 3, 4000, load);
  const std::string body(util::unseal(seed, "FSSN", 2));
  fuzz("snapshot body", body, 4, 8000, [&](const std::string& mutant) {
    load(util::seal("FSSN", 2, mutant));
  });
}

TEST(Fuzz, UnsealArbitraryBytes) {
  const std::string seed = util::seal("HDRX", 3, std::string(40, 'b'));
  fuzz("unseal", seed, 5, 10000, [](const std::string& bytes) {
    try {
      util::unseal(bytes, "HDRX", 3);
    } catch (const CorruptCheckpoint&) {
    }
  });
}

// ---------- stream journal and wire ----------

TEST(Fuzz, JournalRecovery) {
  const std::string path = fresh_dir("journal") + "/journal.fsj";
  {
    stream::JournalWriter journal(path);
    journal.append_accepted(
        0, event("1\t2010-10-19T10:00:00Z\t30.25\t-97.75\t5", 0));
    journal.append_quarantined(1, stream::RejectReason::kBadTimestamp,
                               "7\tmalformed");
    journal.append_shed(2, "8\t2010-10-19T10:00:00Z\t30.25\t-97.75\t5");
    journal.append_accepted(
        3, event("2\t2010-10-19T10:30:00Z\t30.25\t-97.75\t5\t9", 1));
  }
  const std::string seed = util::read_file(path);
  ASSERT_EQ(stream::recover_journal(path).records.size(), 4u);
  // recover_journal documents no exception: damage is a truncated_tail.
  fuzz("journal", seed, 6, 10000, [&path](const std::string& bytes) {
    write_bytes(path, bytes);
    const auto recovered = stream::recover_journal(path);
    if (recovered.valid_bytes > bytes.size())
      throw std::logic_error("valid prefix longer than the file");
  });
}

TEST(Fuzz, WireFrameDecoder) {
  std::string seed = net::encode_frame(net::FrameType::kHello, "");
  seed += net::encode_frame(net::FrameType::kCheckin,
                            "1\t2010-10-19T10:00:00Z\t30.25\t-97.75\t5");
  seed += net::encode_frame(net::FrameType::kCommit, "");
  seed += net::encode_frame_u64(net::FrameType::kAck, 42);
  fuzz("FSN1 frames", seed, 7, 40000, [](const std::string& bytes) {
    net::FrameDecoder decoder;
    // Split the stream at an arbitrary point: frames may straddle reads.
    const std::size_t split = bytes.size() / 3;
    decoder.feed(bytes.data(), split);
    bool fed_rest = false;
    net::Frame frame;
    while (true) {
      const net::DecodeStatus status = decoder.next(frame);
      if (status == net::DecodeStatus::kFrame) {
        if (frame.payload.size() > net::kMaxFramePayload)
          throw std::logic_error("oversized payload decoded");
        net::frame_u64(frame);
        continue;
      }
      if (status == net::DecodeStatus::kError) {
        if (!decoder.can_resync()) break;  // unframeable: drop the peer
        decoder.resync();
        continue;
      }
      if (fed_rest) break;
      decoder.feed(bytes.data() + split, bytes.size() - split);
      fed_rest = true;
    }
  });
}

TEST(Fuzz, EventLineParser) {
  const std::string seed = "42\t2010-10-19T23:55:27Z\t30.25\t-97.75\t88\t7001";
  fuzz("event line", seed, 8, 20000, [](const std::string& line) {
    stream::RawEvent e;
    stream::parse_event_line(line, e);
  });
}

// ---------- store, JSON, SNAP ----------

struct SnapWorld {
  std::string checkins;
  std::string edges;
};

SnapWorld write_small_world(const std::string& dir) {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = 12;
  cfg.poi_count = 30;
  cfg.weeks = 1;
  cfg.seed = 3;
  const data::SyntheticWorld world = data::generate_world(cfg);
  SnapWorld files{dir + "/checkins.txt", dir + "/edges.txt"};
  data::save_checkins_snap(world.dataset, files.checkins, files.edges);
  return files;
}

TEST(Fuzz, StoreOpen) {
  const std::string dir = fresh_dir("store");
  const SnapWorld world = write_small_world(dir);
  const std::string path = dir + "/world.fsst";
  store::convert_snap_to_store(world.checkins, world.edges, path, {});
  const std::string seed = util::read_file(path);
  ASSERT_NO_THROW(store::MappedStore::open(path));
  for (const store::Verify verify :
       {store::Verify::kHeaderOnly, store::Verify::kFull}) {
    const bool full = verify == store::Verify::kFull;
    fuzz(full ? "store full" : "store header", seed, full ? 9 : 10, 3000,
         [&](const std::string& bytes) {
           write_bytes(path, bytes);
           try {
             const store::MappedStore opened =
                 store::MappedStore::open(path, verify);
             // A fully verified store must also materialize.
             if (full) opened.to_dataset();
           } catch (const CorruptStore&) {
           }
         });
  }
}

TEST(Fuzz, JsonParse) {
  const std::string seed =
      R"({"name": "tiny", "seeds": [1, 2, 3], "world": {"users": 80,)"
      R"( "drift": -0.5e-1, "tag": "a\"b\\cé"}, "ok": true,)"
      R"( "none": null, "nested": [[{"x": [false]}]]})";
  ASSERT_NO_THROW(obs::json::parse(seed));
  fuzz("json", seed, 11, 20000, [](const std::string& text) {
    try {
      obs::json::parse(text);
    } catch (const ParseError&) {
    }
  });
}

TEST(Fuzz, SnapLoader) {
  const std::string dir = fresh_dir("snap");
  const SnapWorld world = write_small_world(dir);
  const std::string checkins = util::read_file(world.checkins);
  const std::string edges = util::read_file(world.edges);
  const std::string mutant_checkins = dir + "/mutant_checkins.txt";
  const std::string mutant_edges = dir + "/mutant_edges.txt";
  write_bytes(mutant_edges, edges);
  write_bytes(mutant_checkins, checkins);
  // Strict loading throws ParseError on a bad record; permissive loading
  // quarantines it.
  const auto load = [&](const std::string&) {
    for (const auto strictness :
         {data::Strictness::kStrict, data::Strictness::kPermissive}) {
      data::LoadOptions options;
      options.strictness = strictness;
      try {
        data::load_checkins_snap(mutant_checkins, mutant_edges, options);
      } catch (const ParseError&) {
      }
    }
  };
  fuzz("snap checkins", checkins, 12, 450, [&](const std::string& bytes) {
    write_bytes(mutant_checkins, bytes);
    load(bytes);
  });
  write_bytes(mutant_checkins, checkins);
  fuzz("snap edges", edges, 13, 450, [&](const std::string& bytes) {
    write_bytes(mutant_edges, bytes);
    load(bytes);
  });
}

}  // namespace
}  // namespace fs
