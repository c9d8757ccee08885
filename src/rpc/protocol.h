#ifndef HGDB_RPC_PROTOCOL_H
#define HGDB_RPC_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace hgdb::rpc {

/// Types shared by every layer that produces or consumes debugger stops
/// and execution commands: the runtime raises StopEvents, the session
/// layer renders them as protocol v2 events (rpc/protocol_v2.h) or binary
/// frames (rpc/event_frame.h), and DebugClient decodes them back.

/// Execution-control commands; rpc::command_name() gives the v2 wire name.
enum class Command : uint8_t {
  Continue,         ///< run until an inserted breakpoint hits
  Pause,            ///< stop at the next statement boundary
  StepOver,         ///< next statement (any breakpointable location)
  StepBack,         ///< previous statement (intra-cycle reverse; uses
                    ///< time travel across cycles when supported)
  ReverseContinue,  ///< run backwards until an inserted breakpoint hits
  Jump,             ///< jump to absolute time (requires time travel)
  Detach,           ///< remove all breakpoints and stop serving
};

/// One concurrent "hardware thread" stopped at a breakpoint
/// (paper Fig. 4 B): same source line, different instance.
struct Frame {
  int64_t breakpoint_id = 0;
  int64_t instance_id = 0;
  std::string instance_name;
  std::string filename;
  uint32_t line = 0;
  uint32_t column = 0;
  /// Local (scope) variables; values rendered as decimal strings; dotted
  /// names re-aggregated into nested objects (bundle reconstruction).
  common::Json locals = common::Json::object();
  /// Generator (instance) variables, same encoding.
  common::Json generator = common::Json::object();
  /// User-condition texts that matched at this hit (empty for
  /// unconditional stops). With per-session conditions refcounted on one
  /// shared location, the session layer routes the stop only to sessions
  /// whose own condition matched; omitted from the wire when empty so
  /// existing clients see identical frames.
  std::vector<std::string> matched_conditions;
};

/// A signal watchpoint that fired this cycle (protocol v2 `watch`): the
/// watched expression's value changed between consecutive rising edges.
struct WatchHit {
  int64_t id = 0;
  std::string expression;
  std::string old_value;  ///< decimal rendering before the edge
  std::string new_value;  ///< decimal rendering after the edge
};

struct StopEvent {
  uint64_t time = 0;
  std::vector<Frame> frames;
  /// Watchpoint hits (empty for plain breakpoint stops; omitted from the
  /// wire format when empty).
  std::vector<WatchHit> watch_hits;
  /// Session-layer routing metadata (never serialized): true when the stop
  /// came from a run-mode inserted-breakpoint hit, i.e. the frames'
  /// matched_conditions were actually evaluated. Only such stops are
  /// condition-routed; step/pause/watch stops broadcast to every session.
  bool condition_routed = false;
};

/// Extracts StopEvent fields from the payload of a v2 "stop" event.
/// Absent fields default; present but wrong-typed ones throw
/// std::runtime_error (and nothing else).
StopEvent stop_event_fields(const common::Json& json);
/// Renders a StopEvent's fields as a JSON object (the v2 event payload).
common::Json stop_event_payload(const StopEvent& event);

/// Inserts `value` into a nested JSON object, splitting `name` on '.' —
/// "io.out.bits" becomes {"io":{"out":{"bits": value}}}. This is the
/// bundle re-aggregation the paper demonstrates on the FPU's PortBundle.
void insert_nested(common::Json& object, const std::string& name,
                   common::Json value);

}  // namespace hgdb::rpc

#endif  // HGDB_RPC_PROTOCOL_H
