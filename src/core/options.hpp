#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "airfoil/geometry.hpp"
#include "blayer/growth.hpp"
#include "core/phase_hook.hpp"

namespace aero {

/// One problem found by Options::validate(). `field` names the offending
/// knob exactly as its fluent setter / CLI flag spells it, so a caller can
/// point the user at the right option without string-matching the message.
struct OptionIssue {
  enum class Severity { kError, kWarning };
  Severity severity = Severity::kError;
  std::string field;    ///< setter name, e.g. "growth_ratio"
  std::string message;  ///< human-readable explanation

  bool is_error() const { return severity == Severity::kError; }
};

/// Render a list of issues as one multi-line string (for error messages).
std::string format_issues(const std::vector<OptionIssue>& issues);

/// The unified public configuration of the mesher: one value type covering
/// everything the internal stage structs (`BoundaryLayerOptions`,
/// `DecomposeOptions`, `PoolTuning`, `obs::TraceConfig`, `FaultConfig`)
/// split across their own headers.
/// Defaults below are the library defaults; the CLI and the benches render
/// their `--help`/flag tables from option_specs(), so the documented
/// defaults can never drift from these initializers.
///
/// Usage (fluent builder — every setter returns *this):
///
///   auto result = generate_mesh(Options()
///                                   .geometry(make_naca0012(300))
///                                   .first_height(2e-4)
///                                   .max_layers(40));
///
/// `validate()` reports typed errors; the generate_mesh / parallel
/// entry points call it and throw std::invalid_argument on any kError.
struct Options {
  // -- Geometry -----------------------------------------------------------
  /// Input surfaces (closed CCW loops). Required: validate() rejects an
  /// empty element list.
  AirfoilConfig airfoil;

  // -- Boundary layer -----------------------------------------------------
  /// Normal-spacing growth law (geometric/polynomial/adaptive).
  GrowthKind growth_kind = GrowthKind::kGeometric;
  /// First boundary-layer cell height h0, in chord units. The push-button
  /// default (2e-4, 40 layers) matches the aeromesh CLI's historical tuning
  /// for unit-chord sections.
  double first_height = 2e-4;
  /// Growth ratio r (geometric/adaptive) or exponent p (polynomial).
  double growth_ratio = 1.2;
  /// Cap on the number of anisotropic layers per ray.
  int max_layers = 40;

  // -- Inviscid region ----------------------------------------------------
  /// Far-field half-extent in chord lengths (paper: 30-50).
  double farfield_chords = 30.0;
  /// Near-body box margin beyond the boundary-layer cloud, in chords.
  double nearbody_margin = 0.12;
  /// Inviscid edge-length growth per unit distance from the near-body box.
  double grade = 0.25;
  /// Inviscid sizing at the near-body box, as a multiple of the mean
  /// boundary-layer outer-border spacing.
  double surface_length_factor = 1.5;

  // -- Decomposition ------------------------------------------------------
  /// Boundary-layer decomposition: stop splitting below this many points.
  std::size_t bl_min_points = 2048;
  /// Boundary-layer decomposition: recursion depth cap.
  int bl_max_level = 12;
  /// Inviscid decoupling: target triangles per subdomain.
  double inviscid_target_triangles = 40000.0;
  /// Inviscid decoupling: recursion depth cap.
  int inviscid_max_level = 10;

  // -- Parallel runtime ---------------------------------------------------
  /// Rank count of the in-process pool; 0 = run the sequential pipeline.
  int ranks = 0;
  /// Each rank meshes its subdomains on one thread. A constant, not a knob;
  /// it stays only because the benchmark harness in perfbench/ reads it.
  static constexpr int threads_per_rank = 1;
  /// Zero-copy RMA-window transport for large pool payloads (off = the
  /// full-copy frame path, kept for differential testing).
  bool rma = true;
  /// Payloads at or above this many bytes move through the RMA window.
  std::size_t rma_threshold = 1024;
  /// Unacknowledged pool work transfers are retransmitted after this long.
  long ack_timeout_ms = 25;
  /// A rank whose heartbeat stalls this long is declared dead and its
  /// queued work reclaimed.
  long heartbeat_timeout_ms = 500;
  /// Hard watchdog bound on a pool pass, in seconds. 0 = auto: scaled with
  /// the problem size (see scaled_watchdog_seconds), never below 120 s.
  long watchdog_timeout_s = 0;

  // -- Run-level resilience -----------------------------------------------
  /// Wall-clock budget per pool pass, in milliseconds (0 = unlimited). On
  /// exhaustion the run drains gracefully: in-flight subdomains finish, the
  /// partial mesh and checkpoint journal are written, and the run reports
  /// RunStatus::kStopped with a completeness summary.
  long budget_wall_ms = 0;
  /// Peak-RSS budget for the process, in MiB (0 = unlimited). Same graceful
  /// drain as the wall budget when exceeded.
  long budget_rss_mb = 0;
  /// Append finalized subdomains to this checkpoint journal ("" = off).
  std::string checkpoint_path;
  /// Resume from this journal: completed subdomains are replayed instead of
  /// re-meshed; the merged result is bit-identical to an uninterrupted run.
  /// When checkpoint_path is empty the journal is also appended in place, so
  /// an interrupted resume is itself resumable.
  std::string resume_path;
  /// Out-of-core finalization: when non-empty, each pool pass spills
  /// finalized subdomains to a CRC-framed journal in this directory instead
  /// of holding their triangle soup resident, then merges window-by-window
  /// under the resident budget below. The merged mesh is bit-identical to
  /// the in-RAM path at every rank count ("" = merge in RAM).
  std::string merge_spill_dir;
  /// Resident-payload budget for the spill merge, in MiB. Each merge window
  /// loads at most this many payload bytes (always at least one record).
  long merge_resident_mb = 256;
  /// External stop request (programmatic, not CLI-settable): when the
  /// pointee flips true mid-run the pool drains exactly like an exhausted
  /// budget. The aeromesh CLI points this at its SIGINT flag.
  const std::atomic<bool>* stop_flag = nullptr;

  // -- Fault injection (chaos testing; the tolerance machinery is always
  //    on, these only control the injector) -------------------------------
  /// P(message dropped); duplication/corruption/delay are injected at half
  /// this rate, mirroring the CLI's historical --fault-rate behavior.
  double fault_rate = 0.0;
  /// Deterministic seed for the fault injector.
  std::uint64_t fault_seed = 0;

  // -- Observability ------------------------------------------------------
  /// Record an execution trace (observation-only; a traced run produces a
  /// mesh bit-identical to an untraced one).
  bool trace = false;
  /// Per-thread trace buffer capacity in events (overflow drops, never
  /// grows).
  std::size_t trace_events = std::size_t{1} << 16;

  /// Optional phase-boundary observer (not CLI-settable; see PhaseHook).
  PhaseHook phase_hook;

  // -- Fluent setters (each returns *this for chaining) -------------------
  Options& geometry(AirfoilConfig g) { airfoil = std::move(g); return *this; }
  Options& growth(GrowthKind k) { growth_kind = k; return *this; }
  Options& set_first_height(double h) { first_height = h; return *this; }
  Options& set_growth_ratio(double r) { growth_ratio = r; return *this; }
  Options& set_max_layers(int n) { max_layers = n; return *this; }
  Options& set_farfield_chords(double c) { farfield_chords = c; return *this; }
  Options& set_nearbody_margin(double m) { nearbody_margin = m; return *this; }
  Options& set_grade(double g) { grade = g; return *this; }
  Options& set_surface_length_factor(double f) {
    surface_length_factor = f;
    return *this;
  }
  Options& set_bl_min_points(std::size_t n) { bl_min_points = n; return *this; }
  Options& set_bl_max_level(int n) { bl_max_level = n; return *this; }
  Options& set_inviscid_target_triangles(double t) {
    inviscid_target_triangles = t;
    return *this;
  }
  Options& set_inviscid_max_level(int n) {
    inviscid_max_level = n;
    return *this;
  }
  Options& set_ranks(int n) { ranks = n; return *this; }
  Options& set_rma(bool on) { rma = on; return *this; }
  Options& set_rma_threshold(std::size_t bytes) {
    rma_threshold = bytes;
    return *this;
  }
  Options& set_ack_timeout_ms(long ms) { ack_timeout_ms = ms; return *this; }
  Options& set_heartbeat_timeout_ms(long ms) {
    heartbeat_timeout_ms = ms;
    return *this;
  }
  Options& set_watchdog_timeout_s(long s) {
    watchdog_timeout_s = s;
    return *this;
  }
  Options& set_budget_wall_ms(long ms) { budget_wall_ms = ms; return *this; }
  Options& set_budget_rss_mb(long mb) { budget_rss_mb = mb; return *this; }
  Options& set_checkpoint_path(std::string p) {
    checkpoint_path = std::move(p);
    return *this;
  }
  Options& set_resume_path(std::string p) {
    resume_path = std::move(p);
    return *this;
  }
  Options& set_merge_spill_dir(std::string d) {
    merge_spill_dir = std::move(d);
    return *this;
  }
  Options& set_merge_resident_mb(long mb) {
    merge_resident_mb = mb;
    return *this;
  }
  Options& set_stop_flag(const std::atomic<bool>* f) {
    stop_flag = f;
    return *this;
  }
  Options& set_fault_rate(double r) { fault_rate = r; return *this; }
  Options& set_fault_seed(std::uint64_t s) { fault_seed = s; return *this; }
  Options& set_trace(bool on) { trace = on; return *this; }
  Options& set_trace_events(std::size_t n) { trace_events = n; return *this; }
  Options& set_phase_hook(PhaseHook h) {
    phase_hook = std::move(h);
    return *this;
  }

  /// Check every knob; returns all problems found (empty = valid). Errors
  /// make the run entry points throw; warnings are advisory (the CLI prints
  /// them to stderr and continues).
  [[nodiscard]] std::vector<OptionIssue> validate() const;
};

/// Metadata row describing one CLI-settable Options knob. The CLI's parser
/// and --help text, and any bench that wants library flags, iterate this
/// table instead of hand-rolling flags, so they cannot drift from the
/// defaults documented on Options.
struct OptionSpec {
  const char* flag;        ///< e.g. "--first-height"
  const char* value_name;  ///< metavar for help, e.g. "H"
  const char* help;        ///< one-line description
  std::string default_str; ///< default rendered from a default Options
  /// Parse `text` into `opts`; false on malformed input.
  bool (*apply)(Options& opts, const char* text);
};

/// The full table of CLI-settable knobs (everything except geometry,
/// phase_hook, and stop_flag, which are programmatic). Built once, in
/// declaration order.
const std::vector<OptionSpec>& option_specs();

/// Effective watchdog bound: watchdog_timeout_s when set, otherwise scaled
/// with the problem size (surface points x layers) so big cases on slow or
/// oversubscribed machines are not killed by a fixed 120 s default. Always
/// at least 120 s, capped at 2 hours.
long scaled_watchdog_seconds(const Options& opts);

}  // namespace aero
