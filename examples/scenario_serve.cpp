// Scenario serving daemon: the engine as a persistent service.
//
//   ./scenario_serve --cache=corpus                 # stdio NDJSON loop
//   ./scenario_serve --listen=7070 --pool=8         # TCP on 127.0.0.1:7070
//   echo '{"spec":"hypercube:dim=6","algo":"bfs"}' | ./scenario_serve
//
// One JSON request per line in, one JSON response per line out (see
// docs/SERVING.md and src/serve/protocol.hpp for the grammar). The daemon
// loads each graph once into a warm LRU engine pool — repeat queries skip
// corpus loading AND Network construction — and coalesces same-graph
// bfs/sssp queries inside a batching window into single batch executions.
//
// Options:
//   --cache=<dir>    binary graph corpus shared with scenario_runner:
//                    topologies load from / persist to it (default: build
//                    in memory only)
//   --pool=<n>       warm (graph, engine) pairs kept in the LRU pool
//                    (default 4)
//   --window=<n>     queries buffered before a batch flush; 1 (default)
//                    answers every query immediately. Larger windows enable
//                    coalescing; {"cmd":"flush"} forces an early flush, and
//                    the event loop flushes a part-filled window as soon as
//                    the input goes idle
//   --telemetry=<m>  per-flush engine telemetry: "off" (default), "rounds",
//                    or "full" (docs/OBSERVABILITY.md)
//   --metrics-out=<f> NDJSON telemetry side channel, appended per flush;
//                    needs --telemetry
//   --listen=<port>  serve one TCP client at a time on 127.0.0.1:<port>
//                    instead of stdin/stdout; keeps accepting until a
//                    {"cmd":"shutdown"} arrives
//   --max-pending=<n> admission bound: a query arriving while n are already
//                    pending is shed with the typed `overloaded` error and
//                    a retry_after_ms backoff hint (default 0 = unbounded)
//   --flush-budget=<ms> per-flush time budget: every query of a flushed
//                    window gets an effective deadline of min(its own
//                    deadline_ms, flush start + budget) (default 0 = none)
//
// Signals and shutdown. SIGPIPE is ignored: a client that vanishes
// mid-write surfaces as EPIPE and drops THAT client, never the daemon.
// SIGTERM/SIGINT start a graceful drain — the pending window is flushed,
// every accepted query is answered (or typed-errored), one final stats
// line is emitted outside the request/response ledger, and the daemon
// exits 0. Handlers are installed without SA_RESTART so blocking
// accept/poll/read calls return EINTR and the loop notices promptly.
//
// Exit status: 0 on EOF/shutdown/drain (including a vanished stdio peer),
// 2 on bad flags or an unrecoverable transport failure.

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "congest/telemetry.hpp"
#include "serve/service.hpp"
#include "util/options.hpp"

namespace {

/// Set by SIGTERM/SIGINT; every blocking syscall in the event loop is
/// EINTR-aware, so the drain starts within one loop iteration.
volatile std::sig_atomic_t g_stop = 0;

extern "C" void stop_handler(int) { g_stop = 1; }

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = stop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: accept/poll/read must return EINTR
                    // so the loop re-checks g_stop instead of blocking on
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // dead peers become EPIPE, not process death
}

/// Userspace line assembly over raw reads (shared by stdio and TCP).
class LineBuffer {
 public:
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Pop the next complete '\n'-terminated line (trailing CR stripped).
  bool take_line(std::string& line) {
    const auto nl = buffer_.find('\n');
    if (nl == std::string::npos) return false;
    line.assign(buffer_, 0, nl);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    buffer_.erase(0, nl + 1);
    return true;
  }

  /// At EOF, surface a final unterminated line, if any.
  bool take_partial(std::string& line) {
    if (buffer_.empty()) return false;
    line = std::move(buffer_);
    buffer_.clear();
    return true;
  }

 private:
  std::string buffer_;
};

enum class WriteStatus { kOk, kClientLost, kError };

/// EINTR-safe full write of one line. A dead peer — EPIPE (SIGPIPE is
/// ignored) or ECONNRESET — reports kClientLost so the caller drops that
/// client, not the process.
WriteStatus write_line(int fd, const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t sent = ::write(fd, out.data() + off, out.size() - off);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return (errno == EPIPE || errno == ECONNRESET) ? WriteStatus::kClientLost
                                                     : WriteStatus::kError;
    }
    off += static_cast<std::size_t>(sent);
  }
  return WriteStatus::kOk;
}

/// How one serving session over an fd pair ended.
enum class SessionEnd {
  kEof,         // clean end of input (pending window flushed and answered)
  kShutdown,    // {"cmd":"shutdown"} accepted
  kStop,        // SIGTERM/SIGINT observed; caller runs the graceful drain
  kClientLost,  // peer vanished mid-write; TCP keeps accepting
  kError,       // unrecoverable transport failure
};

/// Write `lines` in order. A failed write ends the session: kClientLost
/// (the drop is counted) or kError. nullopt when every line went out.
std::optional<SessionEnd> write_all(fc::serve::Service& service, int out_fd,
                                    const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    switch (write_line(out_fd, line)) {
      case WriteStatus::kOk:
        break;
      case WriteStatus::kClientLost:
        service.note_client_drop();
        return SessionEnd::kClientLost;
      case WriteStatus::kError:
        return SessionEnd::kError;
    }
  }
  return std::nullopt;
}

/// Graceful drain: execute everything still pending, answer it (best
/// effort if the peer is gone), then emit one stats line OUTSIDE the
/// request/response ledger as the farewell. out_fd < 0 = no live peer;
/// the stats farewell falls back to stderr so it is never lost.
void drain(fc::serve::Service& service, int out_fd) {
  bool peer_alive = out_fd >= 0;
  for (const std::string& resp : service.flush()) {
    if (peer_alive && write_line(out_fd, resp) != WriteStatus::kOk) {
      service.note_client_drop();
      peer_alive = false;
    }
  }
  const std::string farewell = service.stats_line();
  if (!peer_alive || write_line(out_fd, farewell) != WriteStatus::kOk)
    std::cerr << "scenario_serve: drained; " << farewell << "\n";
}

/// The event loop for one session: drain-read complete lines and submit
/// them, flush the window when input goes idle, notice g_stop between
/// blocking calls. Works for stdio (0, 1) and a connected socket (fd, fd).
SessionEnd serve_fd(fc::serve::Service& service, int in_fd, int out_fd) {
  LineBuffer lines;
  std::string line;
  bool eof = false;
  while (true) {
    // Answer every complete line already assembled before touching the fd
    // again: a burst that arrived in one read() is processed in order, and
    // a signal mid-burst still gets those accepted lines answered below.
    while (lines.take_line(line) || (eof && lines.take_partial(line))) {
      if (const auto end = write_all(service, out_fd, service.submit(line)))
        return *end;
      if (service.shutdown_requested()) return SessionEnd::kShutdown;
    }
    if (g_stop) return SessionEnd::kStop;  // caller flushes + farewells
    if (eof)
      return write_all(service, out_fd, service.flush())
          .value_or(SessionEnd::kEof);

    // Input idle while queries are pending => flush now rather than hold a
    // part-filled window hostage; otherwise block until bytes or a signal.
    pollfd pfd{};
    pfd.fd = in_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, service.pending() > 0 ? 0 : -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // g_stop re-checked at the loop top
      return SessionEnd::kError;
    }
    if (ready == 0) {
      if (const auto end = write_all(service, out_fd, service.flush()))
        return *end;
      continue;
    }

    char chunk[4096];
    const ssize_t got = ::read(in_fd, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        service.note_client_drop();
        return SessionEnd::kClientLost;
      }
      return SessionEnd::kError;
    }
    if (got == 0) {
      eof = true;  // next iteration surfaces a trailing partial line
      continue;
    }
    lines.feed(chunk, static_cast<std::size_t>(got));
  }
}

int serve_stdio(fc::serve::Service& service) {
  switch (serve_fd(service, STDIN_FILENO, STDOUT_FILENO)) {
    case SessionEnd::kStop:
      drain(service, STDOUT_FILENO);
      return 0;
    case SessionEnd::kEof:
    case SessionEnd::kShutdown:
      return 0;
    case SessionEnd::kClientLost:
      return 0;  // the peer is gone; dying loudly would help nobody
    case SessionEnd::kError:
      return 2;
  }
  return 2;
}

int serve_tcp(fc::serve::Service& service, int port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "scenario_serve: socket: " << std::strerror(errno) << "\n";
    return 2;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listener, 1) < 0) {
    std::cerr << "scenario_serve: bind/listen 127.0.0.1:" << port << ": "
              << std::strerror(errno) << "\n";
    ::close(listener);
    return 2;
  }
  std::cerr << "scenario_serve: listening on 127.0.0.1:" << port << "\n";
  // One client at a time: the service is single-threaded state (warm pool,
  // batching window); sequential sessions share its warm engines.
  while (!service.shutdown_requested()) {
    if (g_stop) {
      drain(service, -1);  // between sessions: farewell goes to stderr
      break;
    }
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;  // g_stop handled at the loop top
      std::cerr << "scenario_serve: accept: " << std::strerror(errno) << "\n";
      ::close(listener);
      return 2;
    }
    const SessionEnd end = serve_fd(service, client, client);
    if (end == SessionEnd::kStop) {
      drain(service, client);
      ::close(client);
      break;
    }
    ::close(client);
    // kEof / kShutdown / kClientLost / kError: the session is over either
    // way; the daemon keeps accepting unless shutdown was requested.
  }
  ::close(listener);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fc;
  const Options opts(argc, argv);

  static const std::vector<std::string> known_flags = {
      "cache",       "pool",   "window",      "telemetry",
      "metrics-out", "listen", "max-pending", "flush-budget"};
  for (const auto& key : opts.keys()) {
    if (std::find(known_flags.begin(), known_flags.end(), key) ==
        known_flags.end()) {
      std::cerr << "scenario_serve: unknown option '--" << key
                << "'; known options: --cache --pool --window --telemetry "
                   "--metrics-out --listen --max-pending --flush-budget\n";
      return 2;
    }
  }

  serve::ServiceOptions sopts;
  sopts.cache_dir = opts.get("cache", "");
  sopts.pool_capacity = static_cast<std::size_t>(opts.get_int("pool", 4));
  sopts.window = static_cast<std::size_t>(opts.get_int("window", 1));
  sopts.max_pending = static_cast<std::size_t>(opts.get_int("max-pending", 0));
  sopts.flush_budget_ms =
      static_cast<std::uint64_t>(opts.get_int("flush-budget", 0));
  try {
    sopts.telemetry_mode =
        congest::parse_telemetry_mode(opts.get("telemetry", "off"));
  } catch (const std::exception& err) {
    std::cerr << "scenario_serve: " << err.what() << "\n";
    return 2;
  }
  const std::string metrics_out = opts.get("metrics-out", "");
  std::ofstream metrics_file;
  if (!metrics_out.empty()) {
    if (sopts.telemetry_mode == congest::TelemetryMode::kOff) {
      std::cerr << "scenario_serve: --metrics-out needs --telemetry=rounds "
                   "or --telemetry=full\n";
      return 2;
    }
    metrics_file.open(metrics_out, std::ios::app);
    if (!metrics_file) {
      std::cerr << "scenario_serve: cannot open " << metrics_out << "\n";
      return 2;
    }
    sopts.metrics = &metrics_file;
  }

  std::optional<serve::Service> service;
  try {
    service.emplace(std::move(sopts));
  } catch (const std::exception& err) {
    std::cerr << "scenario_serve: " << err.what() << "\n";
    return 2;
  }

  install_signal_handlers();

  const int port = static_cast<int>(opts.get_int("listen", 0));
  if (port != 0) return serve_tcp(*service, port);
  return serve_stdio(*service);
}
