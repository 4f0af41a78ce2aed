#include "inetsim/http.hpp"

#include <sstream>

#include "util/str.hpp"

namespace malnet::inetsim {

namespace {

/// Splits "<head>\r\n\r\n<body>" and parses header lines into `headers`.
/// Returns the body view, or nullopt if the blank line is missing or a
/// header line has no colon.
std::optional<std::string_view> split_headers(
    std::string_view data, std::string& first_line,
    std::map<std::string, std::string>& headers) {
  const auto end = data.find("\r\n\r\n");
  if (end == std::string_view::npos) return std::nullopt;
  const std::string_view head = data.substr(0, end);
  const std::string_view body = data.substr(end + 4);

  std::size_t pos = 0;
  bool first = true;
  while (pos <= head.size()) {
    const auto eol = head.find("\r\n", pos);
    const std::string_view line =
        head.substr(pos, eol == std::string_view::npos ? head.size() - pos : eol - pos);
    if (first) {
      first_line = std::string(line);
      first = false;
    } else if (!line.empty()) {
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      headers[util::to_lower(util::trim(line.substr(0, colon)))] =
          std::string(util::trim(line.substr(colon + 1)));
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 2;
  }
  return body;
}

std::optional<std::size_t> content_length(
    const std::map<std::string, std::string>& headers) {
  const auto it = headers.find("content-length");
  if (it == headers.end()) return 0;
  const auto n = util::parse_u64(it->second);
  if (!n) return std::nullopt;
  return static_cast<std::size_t>(*n);
}

}  // namespace

std::string HttpRequest::serialize() const {
  std::ostringstream os;
  os << method << ' ' << path << ' ' << version << "\r\n";
  bool wrote_len = false;
  for (const auto& [k, v] : headers) {
    os << k << ": " << v << "\r\n";
    if (util::iequals(k, "content-length")) wrote_len = true;
  }
  if (!body.empty() && !wrote_len) os << "content-length: " << body.size() << "\r\n";
  os << "\r\n" << body;
  return os.str();
}

std::string HttpResponse::serialize() const {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << ' ' << reason << "\r\n";
  bool wrote_len = false;
  for (const auto& [k, v] : headers) {
    os << k << ": " << v << "\r\n";
    if (util::iequals(k, "content-length")) wrote_len = true;
  }
  if (!wrote_len) os << "content-length: " << body.size() << "\r\n";
  os << "\r\n" << body;
  return os.str();
}

std::optional<HttpRequest> parse_request(std::string_view data) {
  HttpRequest req;
  std::string first_line;
  const auto body = split_headers(data, first_line, req.headers);
  if (!body) return std::nullopt;
  const auto parts = util::split_ws(first_line);
  if (parts.size() != 3) return std::nullopt;
  req.method = parts[0];
  req.path = parts[1];
  req.version = parts[2];
  const auto len = content_length(req.headers);
  if (!len || *len > body->size()) return std::nullopt;
  req.body = std::string(body->substr(0, *len));
  return req;
}

std::optional<HttpResponse> parse_response(std::string_view data) {
  HttpResponse resp;
  std::string first_line;
  const auto body = split_headers(data, first_line, resp.headers);
  if (!body) return std::nullopt;
  const auto parts = util::split_ws(first_line);
  if (parts.size() < 2 || parts[0].rfind("HTTP/", 0) != 0) return std::nullopt;
  const auto status = util::parse_u64(parts[1]);
  if (!status || *status < 100 || *status > 599) return std::nullopt;
  resp.status = static_cast<int>(*status);
  resp.reason = parts.size() > 2 ? parts[2] : "";
  const auto len = content_length(resp.headers);
  if (!len || *len > body->size()) return std::nullopt;
  resp.body = std::string(body->substr(0, *len));
  return resp;
}

HttpResponse ok_response(std::string body, std::string content_type) {
  HttpResponse r;
  r.headers["content-type"] = std::move(content_type);
  r.headers["server"] = "inetsim/1.0";
  r.body = std::move(body);
  return r;
}

}  // namespace malnet::inetsim
