#include "src/integrity/checkpoint.h"

#include "src/common/fileio.h"

namespace faascost {

void RequireInRange(std::string_view sim, std::string_view field, int64_t value, int64_t lo,
                    int64_t end) {
  if (value < lo || value >= end) {
    throw CheckpointError(std::string(sim) + " checkpoint " + std::string(field) + " " +
                          std::to_string(value) + " is outside [" + std::to_string(lo) +
                          ", " + std::to_string(end) + ")");
  }
}

void WriteCheckpoint(const std::string& path, const CheckpointHeader& header,
                     const std::function<void(JsonWriter&)>& write_state) {
  JsonWriter w;
  w.BeginObject();
  w.KV("magic", kCheckpointMagic);
  w.KV("version", kCheckpointVersion);
  w.KV("sim", std::string_view(header.sim));
  w.KV("seed", header.seed);
  w.KV("config_hash", header.config_hash);
  w.KV("input_digest", header.input_digest);
  w.KV("sim_time_us", header.sim_time_us);
  w.KV("state_digest", header.state_digest);
  w.Key("state");
  write_state(w);
  w.EndObject();
  if (!w.balanced()) {
    throw CheckpointError("checkpoint state writer left unbalanced JSON for '" +
                          path + "'");
  }
  WriteFileAtomic(path, w.str());
}

LoadedCheckpoint LoadCheckpoint(const std::string& path) {
  std::string text;
  try {
    text = ReadFileToString(path);
  } catch (const std::runtime_error& e) {
    throw CheckpointError(std::string("cannot read checkpoint: ") + e.what());
  }

  LoadedCheckpoint out;
  try {
    out.doc = ParseJson(text);
    const JsonValue& doc = out.doc;
    if (doc.At("magic").GetString() != kCheckpointMagic) {
      throw CheckpointError("'" + path + "' is not a faascost checkpoint");
    }
    const int64_t version = doc.At("version").GetInt64();
    if (version != kCheckpointVersion) {
      throw CheckpointError("checkpoint '" + path + "' has version " +
                            std::to_string(version) + ", this build reads " +
                            std::to_string(kCheckpointVersion));
    }
    out.header.sim = doc.At("sim").GetString();
    out.header.seed = doc.At("seed").GetUint64();
    out.header.config_hash = doc.At("config_hash").GetUint64();
    out.header.input_digest = doc.At("input_digest").GetUint64();
    out.header.sim_time_us = doc.At("sim_time_us").GetInt64();
    out.header.state_digest = doc.At("state_digest").GetUint64();
    // Validate the state blob exists up front rather than at first field read.
    (void)doc.At("state");
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    throw CheckpointError("malformed checkpoint '" + path + "': " + e.what());
  }
  return out;
}

}  // namespace faascost
