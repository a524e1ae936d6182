// Versioned, deterministic checkpoint files.
//
// A checkpoint is one JSON document written through the deterministic
// JsonWriter (compact, byte-stable) and the crash-safe WriteFileAtomic path:
//
//   {
//     "magic": "faascost-checkpoint",
//     "version": 2,
//     "sim": "platform" | "fleet",
//     "seed": <u64>,
//     "config_hash": <u64>,     // digest of the full sim config
//     "input_digest": <u64>,    // digest of external input (trace); 0 if none
//     "sim_time_us": <i64>,     // event time the state was captured at
//     "state_digest": <u64>,    // canonical digest of the "state" blob
//     "state": { ... }          // engine state via the Archive walker
//   }
//
// Loading validates magic and version here; the engine validates sim kind,
// config_hash, input_digest, and recomputes state_digest after restore so a
// corrupted or mismatched checkpoint fails closed. All failures throw
// CheckpointError (distinct from IntegrityViolation: a bad file is an input
// problem, not a simulator bug).

#ifndef FAASCOST_INTEGRITY_CHECKPOINT_H_
#define FAASCOST_INTEGRITY_CHECKPOINT_H_

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/common/units.h"

namespace faascost {

inline constexpr std::string_view kCheckpointMagic = "faascost-checkpoint";
// Version 2: the fleet state gained its trace cursor (`next_arrival`), writes
// pending attempts in ascending (arrival, seq) order, and keeps live
// sandboxes only (no `dead` flag). Older files are rejected, not migrated.
inline constexpr int64_t kCheckpointVersion = 2;

class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// An index in a loaded state that does not fit what it indexes would make
// the resumed run read out of bounds. Throws CheckpointError ("<sim>
// checkpoint <field> <value> is outside [lo, end)") unless lo <= value < end.
void RequireInRange(std::string_view sim, std::string_view field, int64_t value, int64_t lo,
                    int64_t end);

struct CheckpointHeader {
  std::string sim;
  uint64_t seed = 0;
  uint64_t config_hash = 0;
  uint64_t input_digest = 0;
  MicroSecs sim_time_us = 0;
  uint64_t state_digest = 0;
};

// Serializes header + state into `path` atomically. `write_state` receives a
// writer positioned at the "state" value and must emit exactly one JSON
// value (normally an object built through Saver).
void WriteCheckpoint(const std::string& path, const CheckpointHeader& header,
                     const std::function<void(JsonWriter&)>& write_state);

struct LoadedCheckpoint {
  CheckpointHeader header;
  JsonValue doc;

  // The engine-state blob ("state" member).
  const JsonValue& state() const { return doc.At("state"); }
};

// Reads and structurally validates a checkpoint (magic, version, header
// fields present and well-typed). Throws CheckpointError on I/O errors,
// malformed JSON, or header mismatch.
LoadedCheckpoint LoadCheckpoint(const std::string& path);

}  // namespace faascost

#endif  // FAASCOST_INTEGRITY_CHECKPOINT_H_
