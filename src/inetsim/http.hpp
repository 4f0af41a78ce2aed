// Minimal HTTP/1.1 codec. Used by the InetSim fake web service, the botnet
// downloader servers (loader delivery on port 80, §3.1) and by the exploit
// payload templates, which are HTTP requests against vulnerable CGI
// endpoints (Table 4).
#pragma once

#include <map>
#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace malnet::inetsim {

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::string version = "HTTP/1.1";
  std::map<std::string, std::string> headers;  // lower-cased keys
  std::string body;

  [[nodiscard]] std::string serialize() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::map<std::string, std::string> headers;
  std::string body;

  [[nodiscard]] std::string serialize() const;
};

/// Parses a complete request held in `data`. Returns nullopt if the request
/// line/headers are malformed or the Content-Length body is incomplete.
[[nodiscard]] std::optional<HttpRequest> parse_request(std::string_view data);

/// Parses a complete response. Same completeness rules as parse_request.
[[nodiscard]] std::optional<HttpResponse> parse_response(std::string_view data);

/// Convenience 200 builder with sensible headers.
[[nodiscard]] HttpResponse ok_response(std::string body,
                                       std::string content_type = "text/plain");

}  // namespace malnet::inetsim
