#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double when) {
  const double left = when - Now();
  if (left > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

std::vector<Samples> TimedSamples::Slice(double start, double end) const {
  std::vector<Samples> slices(kSlices);
  const double width = (end - start) / kSlices;
  for (const auto& [when, value] : points_) {
    if (when < start || when >= end) continue;
    slices[std::min<size_t>(kSlices - 1,
                            static_cast<size_t>((when - start) / width))]
        .Add(value);
  }
  return slices;
}

double TimedSamples::SliceQuantile(double start, double end, double q) const {
  Samples per_slice;
  for (const Samples& slice : Slice(start, end)) {
    if (slice.size() > 0) per_slice.Add(slice.Quantile(q));
  }
  return per_slice.Quantile(0.5);
}

double SelfCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double SelfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RegistryDelta::RegistryDelta(const gprq::obs::RegistrySnapshot& before,
                             const gprq::obs::RegistrySnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    counters_[name] = static_cast<double>(value) -
                      static_cast<double>(before.counter(name));
  }
  for (const auto& [name, hist] : after.histograms) {
    const gprq::obs::HistogramSnapshot* old = before.histogram(name);
    const double count = static_cast<double>(hist.count) -
                         (old ? static_cast<double>(old->count) : 0.0);
    const double sum = static_cast<double>(hist.sum) -
                       (old ? static_cast<double>(old->sum) : 0.0);
    hists_[name] = {count, sum};
  }
}

namespace {

// Reads the flat name → number maps out of a TextExporter::Json body:
// counters as "name": N, histograms as "name": {"count": N, "sum": S, ...}.
// The exporter's layout is fixed (one metric per line), so a line scanner
// is enough.
void ParseStatsJson(const std::string& body,
                    std::map<std::string, double>* counters,
                    std::map<std::string, std::pair<double, double>>* hists) {
  std::istringstream in(body);
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    const size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    const size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    const size_t colon = line.find(':', q2);
    if (colon == std::string::npos) continue;
    const std::string rest = line.substr(colon + 1);
    if (rest.find('{') != std::string::npos &&
        rest.find("count") == std::string::npos) {
      section = name;  // "counters": { / "gauges": { / "histograms": {
      continue;
    }
    if (section == "counters") {
      (*counters)[name] = std::atof(rest.c_str());
    } else if (section == "histograms") {
      const size_t c = rest.find("\"count\":");
      const size_t s = rest.find("\"sum\":");
      if (c == std::string::npos || s == std::string::npos) continue;
      (*hists)[name] = {std::atof(rest.c_str() + c + 8),
                        std::atof(rest.c_str() + s + 6)};
    }
  }
}

}  // namespace

RegistryDelta RegistryDelta::FromJson(const std::string& before,
                                      const std::string& after) {
  std::map<std::string, double> c0, c1;
  std::map<std::string, std::pair<double, double>> h0, h1;
  ParseStatsJson(before, &c0, &h0);
  ParseStatsJson(after, &c1, &h1);
  RegistryDelta delta;
  for (const auto& [name, value] : c1) {
    delta.counters_[name] = value - (c0.count(name) ? c0[name] : 0.0);
  }
  for (const auto& [name, value] : h1) {
    const auto old = h0.count(name) ? h0[name] : std::pair<double, double>{};
    delta.hists_[name] = {value.first - old.first, value.second - old.second};
  }
  return delta;
}

double RegistryDelta::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double RegistryDelta::HistCount(const std::string& name) const {
  const auto it = hists_.find(name);
  return it == hists_.end() ? 0.0 : it->second.first;
}

double RegistryDelta::HistSum(const std::string& name) const {
  const auto it = hists_.find(name);
  return it == hists_.end() ? 0.0 : it->second.second;
}

std::vector<double> RegistryDelta::CounterFamily(
    const std::string& prefix, const std::string& suffix) const {
  std::vector<double> values;
  for (const auto& [name, value] : counters_) {
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      values.push_back(value);
    }
  }
  return values;
}

void RegistryDelta::Merge(const RegistryDelta& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.hists_) {
    hists_[name].first += value.first;
    hists_[name].second += value.second;
  }
}

gprq::obs::RegistrySnapshot RegistryNow() {
  return gprq::obs::MetricRegistry::Global().Snapshot();
}

Result<Child> Child::Spawn(const std::vector<std::string>& argv,
                           const std::string& stderr_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  const int err_fd = ::open(stderr_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (err_fd < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::IoError("cannot open " + stderr_path);
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::close(err_fd);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: die with the benchmark, stdout into the pipe, stderr to file.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  ::close(err_fd);
  Child child;
  child.pid_ = pid;
  child.stdout_fd_ = pipe_fds[0];
  return child;
}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_),
      stdout_fd_(other.stdout_fd_),
      buffered_(std::move(other.buffered_)) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = other.pid_;
    stdout_fd_ = other.stdout_fd_;
    buffered_ = std::move(other.buffered_);
    other.pid_ = -1;
    other.stdout_fd_ = -1;
  }
  return *this;
}

Child::~Child() { Stop(); }

Result<std::string> Child::WaitForLine(const std::string& marker,
                                       double timeout_seconds) {
  const double deadline = Now() + timeout_seconds;
  while (true) {
    size_t newline;
    while ((newline = buffered_.find('\n')) != std::string::npos) {
      std::string line = buffered_.substr(0, newline);
      buffered_.erase(0, newline + 1);
      if (line.find(marker) != std::string::npos) return line;
    }
    const double left = deadline - Now();
    if (left <= 0.0) {
      return Status::DeadlineExceeded("no '" + marker + "' line in time");
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno != EINTR) {
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      return Status::IoError("child exited before printing '" + marker + "'");
    }
    buffered_.append(chunk, static_cast<size_t>(n));
  }
}

void Child::Stop(double grace_seconds) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const double deadline = Now() + grace_seconds;
  while (true) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) break;
    if (Now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  pid_ = -1;
  stdout_fd_ = -1;
}

Result<uint64_t> ReadyField(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) {
    return Status::InvalidArgument("no " + key + "= in '" + line + "'");
  }
  return static_cast<uint64_t>(
      std::strtoull(line.c_str() + at + key.size() + 2, nullptr, 10));
}

Status MakeDirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  if (error) return Status::IoError("mkdir " + path + ": " + error.message());
  return Status::OK();
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void Log(const char* format, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
