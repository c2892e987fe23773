#include "core/checkpoint.h"

#include "util/binary_io.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs::core {

void save_pipeline_checkpoint(const std::string& path,
                              const PipelineCheckpoint& checkpoint) {
  if (!checkpoint.presence.has_value() ||
      !checkpoint.presence->trained())
    throw std::invalid_argument(
        "save_pipeline_checkpoint: presence model missing or untrained");
  if (util::failpoint::fail("checkpoint.save.io"))
    throw IoError("save_pipeline_checkpoint: injected write failure for " +
                  path);

  std::string body;
  util::BinaryWriter writer(body);
  writer.u64(checkpoint.fingerprint);
  writer.i64(checkpoint.iteration);
  writer.i32_vector(checkpoint.predictions);
  writer.f64_vector(checkpoint.scores);
  checkpoint.presence->save(writer);
  util::atomic_write(path, util::seal("FSCP", kCheckpointVersion, body), [&] {
    if (util::failpoint::fail("checkpoint.save.rename"))
      throw IoError("save_pipeline_checkpoint: injected rename failure for " +
                    path);
  });
}

PipelineCheckpoint load_pipeline_checkpoint(const std::string& path) {
  std::string bytes = util::read_file(path);
  // Fault injection: a torn write / short read drops the file's tail.
  bytes.resize(util::failpoint::truncate("checkpoint.load.truncate",
                                         bytes.size()));
  util::BinaryReader reader(util::unseal(bytes, "FSCP", kCheckpointVersion));
  PipelineCheckpoint checkpoint;
  try {
    checkpoint.fingerprint = reader.u64();
    checkpoint.iteration = static_cast<int>(reader.i64());
    checkpoint.predictions = reader.i32_vector();
    checkpoint.scores = reader.f64_vector();
    checkpoint.presence.emplace(PresenceModel::load(reader));
    reader.expect_end();
  } catch (const std::exception& e) {
    // The CRC held, so the body is what was written; a field that does
    // not parse is a format mismatch, surfaced as the one code callers
    // branch on.
    throw CorruptCheckpoint(std::string("load_pipeline_checkpoint: ") +
                            e.what());
  }
  return checkpoint;
}

}  // namespace fs::core
