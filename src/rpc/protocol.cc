#include "rpc/protocol.h"

#include <stdexcept>

#include "common/strings.h"

namespace hgdb::rpc {

using common::Json;

namespace {

// -- malformed-input guards ---------------------------------------------------
// Every accessor below throws std::runtime_error (and nothing else) with a
// field-specific message, so a client decoding a hostile stop payload sees
// one exception type.

/// Absent -> default; present with the wrong type -> error.
std::string optional_string(const Json& json, const char* key) {
  auto field = json.get(key);
  if (!field) return {};
  if (!field->get().is_string()) {
    throw std::runtime_error(std::string("field '") + key +
                             "' must be a string");
  }
  return field->get().as_string();
}

int64_t optional_int(const Json& json, const char* key, int64_t fallback = 0) {
  auto field = json.get(key);
  if (!field) return fallback;
  if (!field->get().is_number()) {
    throw std::runtime_error(std::string("field '") + key +
                             "' must be a number");
  }
  return field->get().as_int();
}

Json frame_to_json(const Frame& frame) {
  Json f = Json::object();
  f["breakpoint_id"] = Json(frame.breakpoint_id);
  f["instance_id"] = Json(frame.instance_id);
  f["instance_name"] = Json(frame.instance_name);
  f["filename"] = Json(frame.filename);
  f["line"] = Json(static_cast<int64_t>(frame.line));
  f["column"] = Json(static_cast<int64_t>(frame.column));
  f["locals"] = frame.locals;
  f["generator"] = frame.generator;
  if (!frame.matched_conditions.empty()) {
    Json matched = Json::array();
    for (const auto& condition : frame.matched_conditions) {
      matched.push_back(Json(condition));
    }
    f["matched_conditions"] = std::move(matched);
  }
  return f;
}

Frame frame_from_json(const Json& f) {
  if (!f.is_object()) throw std::runtime_error("stop frame must be an object");
  Frame frame;
  frame.breakpoint_id = optional_int(f, "breakpoint_id");
  frame.instance_id = optional_int(f, "instance_id");
  frame.instance_name = optional_string(f, "instance_name");
  frame.filename = optional_string(f, "filename");
  frame.line = static_cast<uint32_t>(optional_int(f, "line"));
  frame.column = static_cast<uint32_t>(optional_int(f, "column"));
  if (auto locals = f.get("locals")) {
    if (!locals->get().is_object()) {
      throw std::runtime_error("frame field 'locals' must be an object");
    }
    frame.locals = locals->get();
  }
  if (auto generator = f.get("generator")) {
    if (!generator->get().is_object()) {
      throw std::runtime_error("frame field 'generator' must be an object");
    }
    frame.generator = generator->get();
  }
  if (auto matched = f.get("matched_conditions")) {
    if (!matched->get().is_array()) {
      throw std::runtime_error(
          "frame field 'matched_conditions' must be an array");
    }
    for (const auto& condition : matched->get().as_array()) {
      if (!condition.is_string()) {
        throw std::runtime_error(
            "frame field 'matched_conditions' entries must be strings");
      }
      frame.matched_conditions.push_back(condition.as_string());
    }
  }
  return frame;
}

Json watch_hit_to_json(const WatchHit& hit) {
  Json w = Json::object();
  w["id"] = Json(hit.id);
  w["expression"] = Json(hit.expression);
  w["old"] = Json(hit.old_value);
  w["new"] = Json(hit.new_value);
  return w;
}

WatchHit watch_hit_from_json(const Json& w) {
  if (!w.is_object()) throw std::runtime_error("watch hit must be an object");
  WatchHit hit;
  hit.id = optional_int(w, "id");
  hit.expression = optional_string(w, "expression");
  hit.old_value = optional_string(w, "old");
  hit.new_value = optional_string(w, "new");
  return hit;
}

}  // namespace

StopEvent stop_event_fields(const Json& json) {
  StopEvent stop;
  stop.time = static_cast<uint64_t>(optional_int(json, "time"));
  if (auto frames = json.get("frames")) {
    if (!frames->get().is_array()) {
      throw std::runtime_error("field 'frames' must be an array");
    }
    for (const auto& f : frames->get().as_array()) {
      stop.frames.push_back(frame_from_json(f));
    }
  }
  if (auto watches = json.get("watches")) {
    if (!watches->get().is_array()) {
      throw std::runtime_error("field 'watches' must be an array");
    }
    for (const auto& w : watches->get().as_array()) {
      stop.watch_hits.push_back(watch_hit_from_json(w));
    }
  }
  return stop;
}

Json stop_event_payload(const StopEvent& event) {
  Json json = Json::object();
  json["time"] = Json(static_cast<int64_t>(event.time));
  Json frames = Json::array();
  for (const auto& frame : event.frames) {
    frames.push_back(frame_to_json(frame));
  }
  json["frames"] = std::move(frames);
  if (!event.watch_hits.empty()) {
    Json watches = Json::array();
    for (const auto& hit : event.watch_hits) {
      watches.push_back(watch_hit_to_json(hit));
    }
    json["watches"] = std::move(watches);
  }
  return json;
}

void insert_nested(Json& object, const std::string& name, Json value) {
  const auto parts = common::split(name, '.');
  Json* node = &object;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    Json& child = (*node)[parts[i]];
    if (!child.is_object()) child = Json::object();
    node = &child;
  }
  (*node)[parts.back()] = std::move(value);
}

}  // namespace hgdb::rpc
