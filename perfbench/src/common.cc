#include "common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// calibration
// ---------------------------------------------------------------------------

namespace {

/// The far end of run_calibration_kernel(): one thread answering framed
/// requests on a loopback TCP connection. Created on first use; the
/// destructor (at exit) closes the connection and joins the thread.
class EchoServer {
 public:
  EchoServer() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof address;
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&address), &length) != 0) {
      if (listener >= 0) ::close(listener);
      throw std::runtime_error("calibration: cannot listen on loopback");
    }
    client_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (client_ >= 0 &&
        ::connect(client_, reinterpret_cast<sockaddr*>(&address), sizeof address) == 0) {
      server_ = ::accept(listener, nullptr, nullptr);
    }
    ::close(listener);
    if (server_ < 0) {
      if (client_ >= 0) ::close(client_);
      throw std::runtime_error("calibration: cannot connect on loopback");
    }
    const int enable = 1;
    ::setsockopt(client_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    ::setsockopt(server_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    thread_ = std::thread([this] {
      tid_.store(static_cast<pid_t>(::syscall(SYS_gettid)));
      serve();
    });
  }
  ~EchoServer() {
    ::shutdown(client_, SHUT_RDWR);
    thread_.join();
    ::close(client_);
    ::close(server_);
  }
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  /// Kernel thread id of the echo thread (0 until it started).
  [[nodiscard]] pid_t tid() const { return tid_.load(); }

  /// One request/response exchange.
  void exchange(int token) {
    char request[256];
    const int size = std::snprintf(
        request, sizeof request,
        "{\"command\": \"evaluate-batch\", \"token\": %d, \"payload\": "
        "{\"expressions\": [\"sum\", \"i\"], \"breakpoint_id\": %d}}",
        token, token * 7);
    send_frame(client_, std::string_view(request, static_cast<size_t>(size)));
    const std::string reply = receive_frame(client_, 5000);
    if (parse(reply).size() < 2) throw std::runtime_error("calibration: bad reply");
  }

 private:
  /// Key -> raw value text of a flat JSON-shaped message.
  static std::map<std::string, std::string> parse(const std::string& text) {
    std::map<std::string, std::string> fields;
    size_t at = 0;
    while ((at = text.find('"', at)) != std::string::npos) {
      const size_t end = text.find('"', at + 1);
      if (end == std::string::npos) break;
      fields[text.substr(at + 1, end - at - 1)] = text.substr(end + 1, 8);
      at = end + 1;
    }
    return fields;
  }

  static void send_frame(int fd, std::string_view body) {
    std::string frame(4, '\0');
    const auto size = static_cast<uint32_t>(body.size());
    std::memcpy(frame.data(), &size, 4);
    frame.append(body);
    if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      throw std::runtime_error("calibration: short write");
    }
  }

  /// Reads one frame, waiting at most `timeout_ms` (-1: no limit) for
  /// each read; empty string when the peer closed or the wait timed out.
  static std::string receive_frame(int fd, int timeout_ms) {
    uint32_t size = 0;
    if (!read_all(fd, reinterpret_cast<char*>(&size), 4, timeout_ms) || size > 4096) {
      return {};
    }
    std::string body(size, '\0');
    if (!read_all(fd, body.data(), size, timeout_ms)) return {};
    return body;
  }

  /// Waits with poll() and a timeout before each read, as the debug
  /// transport does: that arms a timer per wait, part of what the host
  /// charges for a hand-off.
  static bool read_all(int fd, char* out, size_t size, int timeout_ms) {
    while (size > 0) {
      pollfd ready{fd, POLLIN, 0};
      if (::poll(&ready, 1, timeout_ms) <= 0) return false;
      const ssize_t n = ::read(fd, out, size);
      if (n <= 0) return false;
      out += n;
      size -= static_cast<size_t>(n);
    }
    return true;
  }

  /// Answers until the client closes. A failed send ends the thread; the
  /// client then sees no reply and reports the failure.
  void serve() {
    try {
      while (true) {
        const std::string request = receive_frame(server_, -1);
        if (request.empty()) return;
        const auto fields = parse(request);
        char reply[256];
        const int size = std::snprintf(
            reply, sizeof reply,
            "{\"token\": %zu, \"status\": \"success\", \"results\": "
            "[{\"expression\": \"sum\", \"value\": \"%zu\"}]}",
            fields.size(), request.size());
        send_frame(server_, std::string_view(reply, static_cast<size_t>(size)));
      }
    } catch (const std::exception&) {
    }
  }

  int client_ = -1;
  int server_ = -1;
  std::atomic<pid_t> tid_{0};
  std::thread thread_;  // declared last: started after the sockets exist
};

EchoServer& echo_server() {
  static EchoServer server;
  return server;
}

}  // namespace

uint64_t run_calibration_kernel() {
  EchoServer& server = echo_server();
  const uint64_t start = now_ns();
  for (int i = 0; i < 16; ++i) server.exchange(i);
  return now_ns() - start;
}

uint64_t other_threads_cpu_ns() {
  const auto self = static_cast<pid_t>(::syscall(SYS_gettid));
  const pid_t echo = echo_server().tid();
  uint64_t total = 0;
  std::error_code error;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", error);
       !error && it != std::filesystem::directory_iterator(); it.increment(error)) {
    const auto tid = static_cast<pid_t>(
        std::strtol(it->path().filename().c_str(), nullptr, 10));
    if (tid == self || tid == echo) continue;
    // The thread's CPU-time clock (what pthread_getcpuclockid returns).
    // Unlike /proc/<tid>/schedstat it includes the current run of a
    // thread that is on a CPU right now.
    const auto clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
    timespec cpu{};
    if (::clock_gettime(clock, &cpu) == 0) {  // a thread that just exited reads nothing
      total += static_cast<uint64_t>(cpu.tv_sec) * 1'000'000'000ull +
               static_cast<uint64_t>(cpu.tv_nsec);
    }
  }
  return total;
}

void Calibration::sample(int reps) {
  run_calibration_kernel();  // warm-up run, discarded
  int accepted = 0;
  for (int tries = 0; accepted < reps && tries < 2 * reps + 2; ++tries) {
    const uint64_t others_before = other_threads_cpu_ns();
    const uint64_t kernel_ns = run_calibration_kernel();
    const uint64_t others_ns = other_threads_cpu_ns() - others_before;
    if (static_cast<double>(others_ns) >
        kMaxOtherShare * static_cast<double>(kernel_ns)) {
      ++refused_;
      continue;
    }
    const double factor = static_cast<double>(kernel_ns) / kCalibReferenceNs;
    recent_.push_back(factor);
    all_.push_back(factor);
    ++accepted;
  }
  constexpr size_t kWindow = 9;
  if (recent_.size() > kWindow) {
    recent_.erase(recent_.begin(),
                  recent_.begin() +
                      static_cast<std::ptrdiff_t>(recent_.size() - kWindow));
  }
}

double Calibration::baseline_ = 1.0;

void Calibration::take_baseline() {
  Calibration calibration;
  calibration.sample(9);
  baseline_ = calibration.overall_factor();
}

double Calibration::factor() const {
  return recent_.empty() ? baseline_ : median(recent_);
}

double Calibration::overall_factor() const {
  return all_.empty() ? baseline_ : median(all_);
}

void calibration_check() {
  constexpr int kSamples = 41;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::printf("%-8s %-18s %-18s %s\n", "busy", "factor (no check)",
              "factor (checked)", "refused");
  for (unsigned busy : {0u, 1u, hardware}) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> burners;
    for (unsigned i = 0; i < busy; ++i) {
      burners.emplace_back([&stop] {
        volatile uint64_t sink = 0;
        while (!stop.load(std::memory_order_relaxed)) sink = sink + 1;
      });
    }
    std::vector<double> unchecked;
    for (int i = 0; i < kSamples; ++i) {
      unchecked.push_back(static_cast<double>(run_calibration_kernel()) /
                          kCalibReferenceNs);
    }
    Calibration checked;
    checked.sample(kSamples);
    stop.store(true);
    for (auto& burner : burners) burner.join();
    char factor[32] = "none accepted";
    if (checked.accepted() > 0) {
      std::snprintf(factor, sizeof factor, "%.3f", checked.overall_factor());
    }
    std::printf("%-8u %-18.3f %-18s %llu of %llu\n", busy, median(unchecked),
                factor, static_cast<unsigned long long>(checked.refused()),
                static_cast<unsigned long long>(checked.refused() + checked.accepted()));
  }
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

void SpanLog::add(const char* category, const char* name, uint64_t start_ns,
                  uint64_t end_ns, uint64_t op_id, uint32_t tid) {
  if (!enabled_) return;
  spans_.push_back(Span{category, name, start_ns, end_ns, op_id, tid});
}

void SpanLog::append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const auto& span : spans_) base = std::min(base, span.start_ns);
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& span : spans_) {
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                 first ? "" : ",", span.name, span.category, span.tid,
                 static_cast<double>(span.start_ns - base) / 1000.0,
                 static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                 static_cast<unsigned long long>(span.op_id));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Report::set_e2e(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  end_to_end[name] = Metric{value, unit, note};
}

void Report::set_layer(const std::string& name, double value,
                       const std::string& unit, const std::string& note) {
  per_layer[name] = Metric{value, unit, note};
}

void Report::set_latency(const Latency& latency, int tail_percentile) {
  const size_t n = latency.scaled_us.size();
  const double q = tail_percentile / 100.0;
  char note[160];
  std::snprintf(note, sizeof note, "raw %.2f us, n=%zu, p50", median(latency.raw_us),
                n);
  set_e2e("op_p50_us", median(latency.scaled_us), "us", note);
  std::snprintf(note, sizeof note, "raw %.2f us, n=%zu, p%d with %zu beyond",
                quantile(latency.raw_us, q), n, tail_percentile,
                static_cast<size_t>(static_cast<double>(n) * (1.0 - q)));
  set_e2e("op_tail_us", quantile(latency.scaled_us, q), "us", note);
  context["op_tail_percentile"] = common_json(static_cast<int64_t>(tail_percentile));
  context["op_samples"] = common_json(static_cast<uint64_t>(n));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t thread_count() {
  std::error_code error;
  size_t count = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", error);
       !error && it != std::filesystem::directory_iterator(); it.increment(error)) {
    ++count;
  }
  return count;
}

namespace {

cpu_set_t g_allowed_at_start;
bool g_pinned = false;

}  // namespace

int pin_to_one_cpu() {
  if (sched_getaffinity(0, sizeof g_allowed_at_start, &g_allowed_at_start) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &g_allowed_at_start)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    g_pinned = sched_setaffinity(0, sizeof one, &one) == 0;
    return g_pinned ? cpu : -1;
  }
  return -1;
}

Unpinned::Unpinned() {
  if (g_pinned) sched_setaffinity(0, sizeof g_allowed_at_start, &g_allowed_at_start);
}

Unpinned::~Unpinned() {
  if (g_pinned) pin_to_one_cpu();
}

void measure_setup(int reps, const std::function<SetupTimes()>& setup,
                   Report& report) {
  Calibration calibration;
  std::vector<double> raw_s, scaled_s;
  std::map<std::string, std::vector<double>> parts_ms;
  for (int rep = 0; rep < reps; ++rep) {
    calibration.sample();
    const SetupTimes times = setup();
    calibration.sample();
    const double factor = calibration.factor();
    raw_s.push_back(times.total_ns / 1e9);
    scaled_s.push_back(times.total_ns / 1e9 / factor);
    for (const auto& [name, ns] : times.parts_ns) {
      parts_ms[name].push_back(ns / 1e6 / factor);
    }
  }
  char note[128];
  std::snprintf(note, sizeof note, "raw %.6f s, median of %d set-ups",
                median(raw_s), reps);
  report.set_e2e("setup_s", median(scaled_s), "s", note);
  for (const auto& [name, values] : parts_ms) {
    report.set_layer(name, median(values), "ms");
  }
}

}  // namespace perfbench
