#pragma once
// gdda::state — versioned binary snapshot/restore of a complete engine.
//
// A snapshot captures everything DdaEngine::step() reads: the BlockSystem
// (vertices/velocities/stresses as raw double bits, plus materials, joints,
// boundary conditions and loads), the live contact set including spring
// memory, the PCG warm start, the construction-time scalars, the step/epoch
// counters, and the SimConfig. The contract is strict: restoring a snapshot
// and continuing is bitwise-identical to never having paused, for both
// engine modes and every solver knob — `block::state_fingerprint` is the
// oracle (docs/STATE.md has the proof sketch).
//
// The on-disk format is self-describing: a fixed header (magic, schema
// version, git sha, engine mode, step index, fingerprints) ahead of a
// length-prefixed, checksummed payload. Every field is little-endian and
// doubles travel as their raw 64 bits — no text round-trip, no precision
// loss. Malformed input of any kind — wrong magic, unknown version,
// truncation, bit corruption, a stored config that is out of range — is
// rejected with a typed SnapshotError, never UB.

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"

namespace gdda::state {

/// On-disk schema version. Bump on any layout change; readers reject every
/// other version with UnsupportedVersion, because the payload layout of
/// another version is unknown to them (v1 to v4 stored longer SimConfigs,
/// and v3 numbered the preconditioners differently).
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// Leading file magic ("GDDASNAP", 8 bytes, no terminator on disk).
inline constexpr char kSnapshotMagic[9] = "GDDASNAP";

enum class SnapshotErrorCode : std::uint8_t {
    OpenFailed,         ///< file could not be opened / created
    BadMagic,           ///< not a gdda snapshot at all
    UnsupportedVersion, ///< written by any schema version but this build's
    Truncated,          ///< ran out of bytes mid-structure
    Corrupt,            ///< checksum/fingerprint mismatch or nonsense values
    Mismatch,           ///< snapshot does not fit the target engine
};

[[nodiscard]] const char* to_string(SnapshotErrorCode code);

/// Typed rejection for every malformed-input and misuse path. `code()`
/// distinguishes programmatic handling (e.g. recovery falls back to a
/// fresh run); what() carries the human-readable detail.
class SnapshotError : public std::runtime_error {
public:
    SnapshotError(SnapshotErrorCode code, const std::string& what)
        : std::runtime_error(what), code_(code) {}
    [[nodiscard]] SnapshotErrorCode code() const { return code_; }

private:
    SnapshotErrorCode code_;
};

/// Self-describing snapshot header. peek_header() reads it without
/// deserializing the payload, so tooling can triage checkpoint files
/// (which job, which step, which build) cheaply.
struct SnapshotHeader {
    std::uint32_t version = kSnapshotVersion;
    std::string git_sha;            ///< build that wrote the snapshot
    core::EngineMode mode = core::EngineMode::Serial;
    int step_index = 0;             ///< completed steps at capture time
    double time = 0.0;
    double dt = 0.0;
    std::uint64_t block_count = 0;
    std::uint64_t contact_count = 0;
    /// block::state_fingerprint of the captured system — the bitwise oracle.
    /// load_snapshot recomputes it from the decoded payload and rejects on
    /// mismatch, so a snapshot that loads is guaranteed bit-faithful.
    std::uint64_t state_fingerprint = 0;
    /// Fingerprint over the trajectory-affecting SimConfig knobs (see
    /// config_fingerprint below). restore_engine refuses a snapshot whose
    /// physics differs from the target engine's.
    std::uint64_t config_fingerprint = 0;
};

/// A decoded snapshot: header + the stored SimConfig + the complete engine
/// state, ready for DdaEngine::restore().
struct EngineSnapshot {
    SnapshotHeader header;
    core::SimConfig config;
    core::EngineCheckpoint state;
};

/// FNV-1a over the trajectory-affecting subset of SimConfig: dt policy,
/// displacement control, penalties, iteration limits, exact_rotation,
/// preconditioner, and the PCG tolerances. Deliberately EXCLUDES knobs with
/// proven bitwise-identity contracts or observer-only roles: broad-phase
/// backend and cache, step_threads, fused PCG, checkpoint_interval,
/// telemetry/trace/metrics.
[[nodiscard]] std::uint64_t config_fingerprint(const core::SimConfig& cfg);

/// Capture a complete snapshot of a live engine (observer-only; the engine
/// is not perturbed).
[[nodiscard]] EngineSnapshot capture(const core::DdaEngine& engine);

/// Serialize a capture to a stream / file. The file variant writes to
/// `path + ".tmp"` and renames into place, so readers never observe a
/// half-written snapshot (crash-safe checkpointing). Throws SnapshotError
/// (OpenFailed) on I/O failure.
void save_snapshot(std::ostream& out, const EngineSnapshot& snap);
void save_snapshot_file(const std::string& path, const EngineSnapshot& snap);

/// Convenience: capture + save in one call.
void save_engine_file(const std::string& path, const core::DdaEngine& engine);

/// Deserialize and fully validate a snapshot: magic, version, payload
/// checksum, structural sanity, the stored config (enum bytes in range,
/// SimConfig::validate() passes), and the state fingerprint recomputed from
/// the decoded blocks. Throws SnapshotError on any defect.
[[nodiscard]] EngineSnapshot load_snapshot(std::istream& in);
[[nodiscard]] EngineSnapshot load_snapshot_file(const std::string& path);

/// Read only the header of a snapshot file (cheap triage). Validates magic
/// and version but not the payload.
[[nodiscard]] SnapshotHeader peek_header(const std::string& path);

/// Restore a loaded snapshot into an engine. Rejects (Mismatch) when the
/// engine mode differs, when the block count differs from the engine's
/// system, or when the trajectory-affecting config fingerprint differs.
/// On success the engine continues bitwise-identically to the run that
/// wrote the snapshot.
void restore_engine(core::DdaEngine& engine, const EngineSnapshot& snap);

} // namespace gdda::state
