#include "session/dap_protocol.h"

#include <cctype>
#include <stdexcept>

namespace hgdb::session::dap {

using common::Json;

std::optional<std::string> FrameCodec::next() {
  const size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buffer_.size() > kMaxHeaderBytes) {
      throw std::runtime_error("dap: oversized header (" +
                               std::to_string(buffer_.size()) +
                               " bytes without terminator)");
    }
    return std::nullopt;  // header still incomplete
  }
  if (header_end > kMaxHeaderBytes) {
    throw std::runtime_error("dap: oversized header");
  }

  // Parse the header block for Content-Length (other headers are legal and
  // ignored, per the DAP base-protocol spec).
  std::optional<size_t> content_length;
  size_t line_start = 0;
  while (line_start < header_end) {
    size_t line_end = buffer_.find("\r\n", line_start);
    if (line_end == std::string::npos || line_end > header_end) {
      line_end = header_end;
    }
    const std::string_view line =
        std::string_view(buffer_).substr(line_start, line_end - line_start);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string key(line.substr(0, colon));
      for (auto& c : key) c = static_cast<char>(std::tolower(
          static_cast<unsigned char>(c)));
      if (key == "content-length") {
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        while (!value.empty() && value.back() == ' ') value.remove_suffix(1);
        if (value.empty()) {
          throw std::runtime_error("dap: empty Content-Length");
        }
        size_t length = 0;
        for (const char c : value) {
          if (!std::isdigit(static_cast<unsigned char>(c))) {
            throw std::runtime_error("dap: non-numeric Content-Length '" +
                                     std::string(value) + "'");
          }
          length = length * 10 + static_cast<size_t>(c - '0');
          if (length > kMaxBodyBytes) {
            throw std::runtime_error("dap: Content-Length exceeds limit");
          }
        }
        content_length = length;
      }
    }
    line_start = line_end + 2;
  }
  if (!content_length) {
    throw std::runtime_error("dap: header missing Content-Length");
  }

  const size_t body_start = header_end + 4;
  if (buffer_.size() < body_start + *content_length) {
    return std::nullopt;  // body still incomplete
  }
  std::string payload = buffer_.substr(body_start, *content_length);
  buffer_.erase(0, body_start + *content_length);
  return payload;
}

std::string FrameCodec::encode(std::string_view payload) {
  std::string framed = "Content-Length: " + std::to_string(payload.size()) +
                       "\r\n\r\n";
  framed.append(payload);
  return framed;
}

Request parse_request(const Json& message) {
  if (!message.is_object()) {
    throw std::runtime_error("dap: message is not a JSON object");
  }
  if (message.get_string("type") != "request") {
    throw std::runtime_error("dap: expected a request message");
  }
  Request request;
  try {
    request.seq = message.get_int("seq");
  } catch (const std::runtime_error&) {
    throw std::runtime_error("dap: request 'seq' is out of int64 range");
  }
  request.command = message.get_string("command");
  if (request.command.empty()) {
    throw std::runtime_error("dap: request missing 'command'");
  }
  if (auto arguments = message.get("arguments")) {
    if (arguments->get().is_object()) request.arguments = arguments->get();
  }
  return request;
}

Json make_response(int64_t seq, const Request& request, bool success,
                   Json body, const std::string& message) {
  Json response = Json::object();
  response["seq"] = Json(seq);
  response["type"] = Json("response");
  response["request_seq"] = Json(request.seq);
  response["command"] = Json(request.command);
  response["success"] = Json(success);
  if (!message.empty()) response["message"] = Json(message);
  response["body"] = std::move(body);
  return response;
}

Json make_event(int64_t seq, const std::string& event, Json body) {
  Json json = Json::object();
  json["seq"] = Json(seq);
  json["type"] = Json("event");
  json["event"] = Json(event);
  json["body"] = std::move(body);
  return json;
}

}  // namespace hgdb::session::dap
