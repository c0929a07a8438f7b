// HTTP/1.1 response assembly.
//
// All header rendering lives here: status lines and fixed header fragments
// are preassembled once and memcpy'd into place, the only per-response
// formatting being the Content-Length digits. The event loops append many
// responses into one output queue and flush them with a single writev;
// the shed and drain paths render one response at a time through the same
// append routine. tests/golden/wire_transcript.http pins the bytes.
//
// The shed response (503 + Retry-After) also has exactly one builder —
// admission-control sheds, EMFILE emergency sheds, and drain-time sheds
// of never-served connections all emit the same bytes.
#pragma once

#include <string>

#include "serve/http_server.hpp"

namespace asrel::serve {

/// Reason phrase for the status codes this server emits.
[[nodiscard]] const char* status_text(int status);

/// Appends one fully rendered response (status line, headers, body) to
/// `out`. `keep_alive` selects the Connection header. This is the single
/// source of response bytes.
void append_http_response(std::string& out, const HttpResponse& response,
                          bool keep_alive);

/// One-shot form of append_http_response (shed and drain responses).
[[nodiscard]] std::string render_http_response(const HttpResponse& response,
                                               bool keep_alive);

/// The one shed response: 503 + Retry-After. Every path that refuses a
/// connection it never served (queue-full admission, EMFILE emergency,
/// drain-time abort of queued connections) sends exactly these bytes.
[[nodiscard]] HttpResponse make_shed_response(int retry_after_s);

}  // namespace asrel::serve
