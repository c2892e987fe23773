// serve-feed: an operator feeding `serve --listen` check-ins as they
// happen, while scraping /streamz.
//
// The server is built in-process the way the CLI builds it (NetServer +
// SocketSource + ServeDaemon with a fsynced journal, CLI default tuning).
// An open-loop generator thread sends FSN1 check-in frames on a fixed
// schedule over one feed connection, commits every kCommitEvery check-ins,
// and GETs /streamz over a second connection every kScrapeEverySeconds.
// It steps through a ladder of offered rates; the first step is the
// reference rate at which ack latency and staleness are reported. Every
// latency is timed from when the request was due, not from when it was
// sent, so a stalled server charges its stall to the requests queued
// behind it.
//
// Threads: the daemon loop (caller), the server's poll thread, and the
// generator — three in total.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "stream/daemon.h"
#include "stream/engine.h"
#include "stream/event.h"
#include "util/runtime.h"

namespace fsbench {
namespace {

namespace net = fs::net;
namespace stream = fs::stream;

// Traffic shape. The client follows net::feed_lines, which commits once at
// the end of each feed; a feed here is one daemon batch, the
// ServeConfig::events_per_tick check-ins (CLI default 64) the daemon takes
// from its ring per tick before the tick's one journal fsync. Committing
// after every check-in does not work: each commit moves the connection's
// ack target to the newest check-in, so a client that never pauses is
// never acked. The scrape rate is an assumption, not a measured usage: an
// operator watching /streamz with `watch curl`, whose default refresh is
// every 2 s.
const std::size_t kCommitEvery = stream::ServeConfig{}.events_per_tick;
constexpr double kScrapeEverySeconds = 2.0;
constexpr double kAckLimitMs = 500.0;      // ack latency limit
constexpr double kLagLimitMs = 20.0;       // generator honesty bound (p99)
constexpr double kReferenceRate = 1000.0;  // events/s of ladder step 0
constexpr double kLadder[] = {1.0, 2.0, 4.0, 8.0, 16.0};  // x reference
constexpr double kStepShare[] = {0.4, 0.15, 0.15, 0.15, 0.15};  // of run
constexpr double kCheckinsPerUser = 16.0;  // measured mean at 20 weeks

/// Check-ins the ladder sends in `seconds`.
double ladder_events(double seconds) {
  double events = 0.0;
  for (std::size_t s = 0; s < std::size(kLadder); ++s)
    events += kReferenceRate * kLadder[s] * seconds * kStepShare[s];
  return events;
}

struct Inputs {
  std::vector<std::string> frames;  // FSN1 check-in frames, send order
  std::vector<std::string> lines;   // the same check-ins as SNAP lines
  std::set<std::pair<long long, long long>> truth;  // friendships, a < b
};

/// A world sized so the ladder never runs out of check-ins (~155k for a
/// 25 s run: 30 times the attack workloads' check-ins, so index state grows
/// while the ladder climbs), streamed in time order the way check-ins
/// arrive.
Inputs make_inputs(const Options& options) {
  fs::data::SyntheticWorldConfig world = fs::data::gowalla_like();
  world.user_count = static_cast<std::size_t>(
      std::max(200.0, 1.3 * ladder_events(options.seconds) / kCheckinsPerUser));
  world.poi_count = 2 * world.user_count;
  world.city_count = std::max<std::size_t>(4, world.user_count / 125);
  world.weeks = 20;
  world.seed += options.seed;
  const fs::data::SyntheticWorld generated = fs::data::generate_world(world);
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir) / "serve";
  std::filesystem::create_directories(dir);
  const std::string checkins = (dir / "checkins.txt").string();
  fs::data::save_checkins_snap(generated.dataset, checkins,
                               (dir / "edges.txt").string());
  std::vector<std::string> lines;
  std::ifstream file(checkins);
  for (std::string line; std::getline(file, line);)
    if (!line.empty()) lines.push_back(std::move(line));
  // Time order, file order among equal times.
  std::vector<std::pair<std::string, std::size_t>> order;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto a = lines[i].find('\t');
    const auto b = lines[i].find('\t', a + 1);
    order.emplace_back(lines[i].substr(a + 1, b - a - 1), i);
  }
  std::sort(order.begin(), order.end());
  Inputs in;
  for (const auto& [time, i] : order) {
    in.frames.push_back(net::encode_frame(net::FrameType::kCheckin, lines[i]));
    in.lines.push_back(std::move(lines[i]));
  }
  for (const auto* edges : {&generated.real_edges, &generated.cyber_edges})
    for (const auto& e : *edges) in.truth.emplace(e.a, e.b);
  return in;
}

/// What the daemon's after_tick hook observes; written only on the daemon
/// thread, read after it stops.
struct TickLog {
  std::vector<double> end_s;             // per tick
  std::vector<double> tick_ms;           // time since the previous tick end
  std::vector<double> staleness_ms;      // per tick
  std::vector<double> sync_ms;           // durable-commit journal fsyncs
  std::vector<double> tick_end_by_tick;  // indexed by engine tick counter
  std::size_t dirty_max = 0;
  std::size_t ring_max = 0;
};

/// The server under test: durability in a fresh journal dir, started and
/// ready for connections.
struct Server {
  fs::runtime::CancellationToken stop;
  fs::runtime::ExecutionContext context;
  std::unique_ptr<net::NetServer> net;
  std::unique_ptr<stream::ServeDaemon> daemon;
  TickLog log;
};

std::unique_ptr<Server> start_server(const std::string& journal_dir) {
  std::filesystem::remove_all(journal_dir);
  std::filesystem::create_directories(journal_dir);
  auto s = std::make_unique<Server>();
  s->context.set_cancellation(&s->stop);
  s->net = std::make_unique<net::NetServer>(net::NetConfig{});
  // CLI defaults of `serve --listen`.
  stream::ServeConfig cfg;
  cfg.engine.sigma = 16;
  cfg.engine.tau_days = 1.0;
  cfg.tick_budget_ms = 50.0;
  cfg.staleness_budget_ticks = 4;
  cfg.journal_dir = journal_dir;
  cfg.stop_when_exhausted = false;
  cfg.idle_sleep_ms = cfg.tick_budget_ms;
  cfg.drain_on_cancel = true;
  cfg.context = &s->context;
  Server* raw = s.get();
  cfg.after_tick = [raw](stream::ServeDaemon& d) {
    TickLog& log = raw->log;
    if (raw->net->commit_pending()) {
      const double t0 = now_seconds();
      d.sync_journal();
      log.sync_ms.push_back((now_seconds() - t0) * 1e3);
      raw->net->publish_durable(d.journaled_watermark());
    }
    raw->net->publish_streamz(d.streamz_json());
    const double now = now_seconds();
    log.tick_ms.push_back(log.end_s.empty() ? 0.0
                                            : (now - log.end_s.back()) * 1e3);
    log.end_s.push_back(now);
    const std::uint64_t tick = d.engine().current_tick();
    if (log.tick_end_by_tick.size() <= tick)
      log.tick_end_by_tick.resize(tick + 1, now);
    log.tick_end_by_tick[tick] = now;
    const std::uint64_t oldest = d.engine().oldest_dirty_tick();
    const double dirtied_end = oldest < log.tick_end_by_tick.size()
                                   ? log.tick_end_by_tick[oldest]
                                   : now;
    log.staleness_ms.push_back((now - dirtied_end) * 1e3);
    log.dirty_max = std::max(log.dirty_max, d.engine().dirty_pair_count());
    log.ring_max = std::max(log.ring_max, d.ring_size());
  };
  s->daemon = std::make_unique<stream::ServeDaemon>(
      std::move(cfg), std::make_unique<net::SocketSource>(*s->net));
  s->daemon->recover();
  s->net->start();
  return s;
}

struct Commit {
  double due_s = 0.0;
  std::uint64_t target = 0;  // check-ins sent before it
  std::size_t step = 0;
};

struct StepResult {
  double rate = 0.0;
  double start_s = 0.0, end_s = 0.0;
  std::size_t sent = 0;
  std::vector<double> ack_ms;  // every commit; never-acked ones at step end
  std::vector<double> lag_ms;
  std::vector<double> backlog;  // sent - durable watermark, at each ack
  std::size_t commits = 0;
  std::size_t late = 0;     // not acked within the limit
  bool complete = false;    // false: the input ran out during the step
};

struct GeneratorResult {
  std::vector<StepResult> steps;
  std::vector<double> scrape_ms;
  std::size_t scrapes_failed = 0;
  std::size_t sent = 0;
  std::vector<std::string> problems;
};

/// The open-loop client. Runs on its own thread; never blocks on the
/// server except for the connection handshakes.
class Generator {
 public:
  Generator(const Inputs& in, std::uint16_t port, double seconds)
      : in_(in), port_(port), seconds_(seconds) {}

  GeneratorResult run() {
    feed_ = net::connect_tcp("127.0.0.1", port_);
    send_blocking(net::encode_frame(net::FrameType::kHello, ""));
    if (read_frame_blocking().type != net::FrameType::kHello)
      throw std::runtime_error("feed handshake failed");
    net::set_nonblocking(feed_.get());
    next_scrape_s_ = now_seconds();
    for (std::size_t s = 0; s < std::size(kLadder); ++s) run_step(s);
    // Everything sent must become durable before the daemon is stopped;
    // the steps gave up on their own late commits.
    out_ += net::encode_frame(net::FrameType::kCommit, "");
    pending_.push_back(Commit{now_seconds(), sent_, kNoStep});
    pump_until(now_seconds() + 10.0, true);
    if (!pending_.empty())
      result_.problems.push_back("final commit never acked");
    result_.sent = sent_;
    return std::move(result_);
  }

 private:
  static constexpr std::size_t kNoStep = static_cast<std::size_t>(-1);

  void run_step(std::size_t s) {
    StepResult step;
    step.rate = kReferenceRate * kLadder[s];
    const double duration = seconds_ * kStepShare[s];
    step.start_s = now_seconds();
    const auto events = static_cast<std::size_t>(step.rate * duration);
    result_.steps.push_back(step);
    StepResult& st = result_.steps.back();
    for (std::size_t i = 0; i < events && cursor_ < in_.frames.size(); ++i) {
      const double due = st.start_s + static_cast<double>(i) / st.rate;
      while (now_seconds() < due) pump_once(due);
      st.lag_ms.push_back((now_seconds() - due) * 1e3);
      out_ += in_.frames[cursor_++];
      ++sent_;
      ++st.sent;
      if (sent_ % kCommitEvery == 0) {
        out_ += net::encode_frame(net::FrameType::kCommit, "");
        pending_.push_back(Commit{due, sent_, s});
        ++st.commits;
      }
      flush();
    }
    st.complete = st.sent == events;
    // Drain: give the step's commits up to the latency limit to land.
    pump_until(now_seconds() + kAckLimitMs / 1e3, true);
    st.end_s = now_seconds();
    // Commits still waiting missed the limit. Their latency is at least
    // the time until now; they are dropped so a later ack cannot count
    // them a second time.
    for (auto* list : {&pending_, &withheld_}) {
      const auto missed =
          std::stable_partition(list->begin(), list->end(),
                                [s](const Commit& c) { return c.step != s; });
      for (auto it = missed; it != list->end(); ++it) {
        st.ack_ms.push_back((st.end_s - it->due_s) * 1e3);
        ++st.late;
      }
      list->erase(missed, list->end());
    }
  }

  void pump_until(double until_s, bool stop_when_acked) {
    while (now_seconds() < until_s) {
      if (stop_when_acked && pending_.empty()) return;
      pump_once(std::min(until_s, now_seconds() + 0.002));
    }
  }

  /// One service round: write, read acks, advance the scrape, then wait
  /// for socket readiness no later than `until_s`.
  void pump_once(double until_s) {
    flush();
    read_acks();
    scrape();
    std::vector<pollfd> fds{{feed_.get(), POLLIN, 0}};
    if (!out_.empty()) fds[0].events |= POLLOUT;
    if (scrape_fd_.valid()) fds.push_back({scrape_fd_.get(), POLLIN, 0});
    // An in-flight scrape wakes the poll by itself; only an idle scrape
    // slot has a due time to wait for.
    const double wake_s =
        scrape_fd_.valid() ? until_s : std::min(until_s, next_scrape_s_);
    const double wait_ms = std::max(0.0, wake_s - now_seconds()) * 1e3;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ms / 1e3);
    ts.tv_nsec = static_cast<long>((wait_ms - ts.tv_sec * 1e3) * 1e6);
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  }

  void flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(feed_.get(), out_.data(), out_.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        return;
      throw std::runtime_error("feed connection lost");
    }
  }

  void read_acks() {
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(feed_.get(), buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed the feed");
      break;
    }
    net::Frame frame;
    while (decoder_.next(frame) == net::DecodeStatus::kFrame) {
      const auto w = net::frame_u64(frame);
      if (frame.type != net::FrameType::kAck || !w) {
        result_.problems.push_back("unexpected frame on the feed");
        continue;
      }
      on_ack(*w);
    }
  }

  /// An ack covers every commit whose target it reaches. A watermark that
  /// moves backwards or past what was sent is a wrong answer.
  void on_ack(std::uint64_t w) {
    const double now = now_seconds();
    if (w < last_ack_ || w > sent_)
      result_.problems.push_back("ack watermark " + std::to_string(w) +
                                 " outside [" + std::to_string(last_ack_) +
                                 ", " + std::to_string(sent_) + "]");
    last_ack_ = std::max(last_ack_, w);
    while (!pending_.empty() && pending_.front().target <= w) {
      const Commit c = pending_.front();
      pending_.pop_front();
      if (c.step == kNoStep) continue;
      if (faults().withhold_ack && !withheld_any_) {
        withheld_any_ = true;  // this ack never arrives for the commit
        withheld_.push_back(c);
        continue;
      }
      StepResult& st = result_.steps[c.step];
      const double ms = (now - c.due_s) * 1e3;
      st.ack_ms.push_back(ms);
      if (ms > kAckLimitMs) ++st.late;
      st.backlog.push_back(static_cast<double>(sent_ - w));
    }
  }

  void scrape() {
    const double now = now_seconds();
    if (scrape_fd_.valid()) {
      char buf[8192];
      while (true) {
        const ssize_t n = ::recv(scrape_fd_.get(), buf, sizeof buf,
                                 MSG_DONTWAIT);
        if (n > 0) {
          scrape_reply_ += std::string(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          if (scrape_reply_.rfind("HTTP/1.1 200", 0) == 0)
            result_.scrape_ms.push_back((now - scrape_due_s_) * 1e3);
          else
            ++result_.scrapes_failed;
          scrape_fd_.reset();
        }
        break;
      }
    }
    if (scrape_fd_.valid() || now < next_scrape_s_) return;
    scrape_due_s_ = next_scrape_s_;
    next_scrape_s_ += kScrapeEverySeconds;
    scrape_reply_.clear();
    scrape_fd_ = net::connect_tcp("127.0.0.1", port_);
    const std::string get =
        "GET /streamz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
    if (::send(scrape_fd_.get(), get.data(), get.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(get.size())) {
      ++result_.scrapes_failed;
      scrape_fd_.reset();
    }
  }

  void send_blocking(const std::string& bytes) {
    if (::send(feed_.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(bytes.size()))
      throw std::runtime_error("feed send failed");
  }

  net::Frame read_frame_blocking() {
    net::set_recv_timeout(feed_.get(), 5000.0);
    net::Frame frame;
    char buf[256];
    while (decoder_.next(frame) != net::DecodeStatus::kFrame) {
      const ssize_t n = ::recv(feed_.get(), buf, sizeof buf, 0);
      if (n <= 0) throw std::runtime_error("feed handshake timed out");
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
    return frame;
  }

  const Inputs& in_;
  std::uint16_t port_;
  double seconds_;
  net::Fd feed_;
  net::FrameDecoder decoder_;
  std::string out_;
  std::deque<Commit> pending_;
  std::size_t cursor_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t last_ack_ = 0;
  std::deque<Commit> withheld_;  // --self-test: acks treated as lost
  bool withheld_any_ = false;
  net::Fd scrape_fd_;
  std::string scrape_reply_;
  double scrape_due_s_ = 0.0;
  double next_scrape_s_ = 0.0;
  GeneratorResult result_;
};

/// Median of the last third of `v` no larger than the first third's by
/// more than a few commits: the backlog did not grow over the step.
bool backlog_flat(const std::vector<double>& v) {
  if (v.size() < 6) return true;
  const std::size_t third = v.size() / 3;
  const std::vector<double> head(v.begin(), v.begin() + third);
  const std::vector<double> tail(v.end() - third, v.end());
  return median(tail) <= 1.5 * median(head) + 4.0 * kCommitEvery;
}

}  // namespace

Report run_serve_workload(const Options& options) {
  Report report;

  const std::string journal_dir =
      (std::filesystem::path(options.work_dir) / "serve" / "journal").string();

  // Set-up: generate the input stream and bring the server up. The median
  // of several is reported: four before the ladder, the last of which is
  // the server measured, and four after it, so the median samples the host
  // at both ends of the run. The traced run sets up once.
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<Server> server;
  const auto set_up = [&] {
    if (server) {
      server->net->stop();
      server.reset();
    }
    const double t0 = now_seconds();
    Inputs next = make_inputs(options);
    server = start_server(journal_dir);
    setup_s.push_back(now_seconds() - t0);
    in = std::move(next);  // freeing the previous inputs is not set-up
  };
  const int setups_per_end = options.trace ? 1 : 4;
  for (int i = 0; i < setups_per_end; ++i) set_up();
  std::printf("inputs: %zu check-ins, %zu friendships\n", in.frames.size(),
              in.truth.size());
  GeneratorResult gen;
  std::string generator_error;
  std::thread generator([&] {
    try {
      gen = Generator(in, server->net->port(), options.seconds).run();
    } catch (const std::exception& e) {
      generator_error = e.what();
    }
    server->stop.request();
  });
  stream::ServeReport served;
  try {
    served = server->daemon->run();
  } catch (...) {
    server->stop.request();
    generator.join();
    server->net->stop();
    throw;
  }
  generator.join();
  server->net->stop_accepting();
  const net::NetStats net_stats = server->net->stats();
  server->net->stop();
  if (!generator_error.empty()) report.fail("generator: " + generator_error);
  for (const std::string& p : gen.problems) report.fail(p);
  if (gen.steps.empty()) return report;

  // Output checks: every check-in accepted, the reference-rate commits
  // acked in time, and the drained state equal to a direct replay.
  report.attempted += gen.sent + gen.scrape_ms.size() + gen.scrapes_failed;
  report.failed += gen.scrapes_failed;
  if (gen.scrapes_failed > 0)
    report.fail(std::to_string(gen.scrapes_failed) + " /streamz GETs failed");
  const std::uint64_t lost = served.quarantined + served.shed;
  report.failed += lost;
  if (lost > 0)
    report.fail(std::to_string(lost) + " check-ins quarantined or shed");
  if (served.consumed_lines != gen.sent)
    report.fail("daemon consumed " + std::to_string(served.consumed_lines) +
                " of " + std::to_string(gen.sent) + " check-ins");
  const StepResult& ref = gen.steps.front();
  if (!ref.complete) report.fail("input ran out during the reference step");
  report.attempted += ref.commits;
  report.failed += ref.late;
  if (ref.late > 0)
    report.fail(std::to_string(ref.late) +
                " reference-rate commits not acked within the limit");
  stream::StreamEngine replay(server->daemon->engine().config());
  for (std::size_t i = 0; i < gen.sent; ++i) {
    stream::RawEvent event;
    if (!stream::parse_event_line(in.lines[i], event)) replay.ingest(event);
  }
  replay.drain();
  if (replay.state_digest() != served.final_digest)
    report.fail("drained state digest differs from a direct replay");
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(served.final_digest));

  // Quality of the live edge set against the world's friendships.
  const auto live = server->daemon->engine().live_edges_raw();
  std::size_t hits = 0;
  for (const auto& e : live) hits += in.truth.count(e);
  const double precision =
      live.empty() ? 0.0 : static_cast<double>(hits) / live.size();
  const double recall =
      in.truth.empty() ? 0.0 : static_cast<double>(hits) / in.truth.size();
  const double f1 = precision + recall > 0
                        ? 2 * precision * recall / (precision + recall)
                        : 0.0;

  // Ladder verdicts.
  double ingest_eps = 0.0;
  for (std::size_t s = 0; s < gen.steps.size(); ++s) {
    const StepResult& st = gen.steps[s];
    const double lag99 = quantile(st.lag_ms, 0.99);
    // A late commit is one acked past the limit or never, so "no commit
    // late" also bounds the step's ack p99 by the limit.
    const char* verdict = "sustained";
    if (!st.complete)
      verdict = "incomplete (input exhausted)";
    else if (lag99 > kLagLimitMs)
      verdict = "invalid (generator behind schedule)";
    else if (st.late > 0 || !backlog_flat(st.backlog))
      verdict = "overloaded";
    else
      ingest_eps = std::max(ingest_eps, st.rate);
    std::printf("ladder %.0f ev/s: %zu sent, %zu commits (%zu late), "
                "ack p50 %.2f ms max %.2f ms, lag p99 %.3f ms -> %s\n",
                st.rate, st.sent, st.commits, st.late,
                quantile(st.ack_ms, 0.5), quantile(st.ack_ms, 1.0), lag99,
                verdict);
  }

  const TickLog& log = server->log;
  std::vector<double> ref_staleness;
  for (std::size_t i = 0; i < log.end_s.size(); ++i)
    if (log.end_s[i] >= ref.start_s && log.end_s[i] <= ref.end_s)
      ref_staleness.push_back(log.staleness_ms[i]);
  std::vector<double> lag_all;
  for (const StepResult& st : gen.steps)
    lag_all.insert(lag_all.end(), st.lag_ms.begin(), st.lag_ms.end());

  if (!options.trace) {
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    for (int i = 0; i < setups_per_end; ++i) set_up();
    server->net->stop();
    std::printf("set-ups (ms):");
    for (double t : setup_s) std::printf(" %.1f", t * 1e3);
    std::printf("\n");
    report.add("setup_s", median(setup_s), "s", setup_s.size());
    report.add("latency_p50_ms", median(ref.ack_ms), "ms", ref.ack_ms.size());
    report.add("f1", f1, "ratio");
    report.add("ingest_eps", ingest_eps, "events/s", gen.steps.size());
    if (tail_supported(ref.ack_ms.size(), 0.99))
      report.add("ack_p99_ms", quantile(ref.ack_ms, 0.99), "ms",
                 ref.ack_ms.size());
    if (tail_supported(ref_staleness.size(), 0.99))
      report.add("staleness_p99_ms", quantile(ref_staleness, 0.99), "ms",
                 ref_staleness.size());
    return report;
  }
  report.add("serve.ingest_eps", ingest_eps, "events/s", gen.steps.size());
  report.add_tail("serve.ack_p99_ms", ref.ack_ms, 0.99, "ms");
  report.add_tail("serve.staleness_p99_ms", ref_staleness, 0.99, "ms");
  report.add("stream.tick_p50_ms", median(log.tick_ms), "ms",
             log.tick_ms.size());
  report.add_tail("stream.tick_p99_ms", log.tick_ms, 0.99, "ms");
  report.add("stream.ticks", static_cast<double>(served.ticks), "count");
  report.add("stream.dirty_max", static_cast<double>(log.dirty_max), "count");
  report.add("stream.ring_max", static_cast<double>(log.ring_max), "count");
  report.add("stream.blocked_polls", static_cast<double>(served.blocked_polls),
             "count");
  report.add("stream.deadline_hits", static_cast<double>(served.deadline_hits),
             "count");
  report.add("stream.journal_sync_p50_ms", median(log.sync_ms), "ms",
             log.sync_ms.size());
  report.add_tail("stream.journal_sync_p99_ms", log.sync_ms, 0.99, "ms");
  report.add("stream.journal_syncs", static_cast<double>(log.sync_ms.size()),
             "count");
  report.add("net.frames", static_cast<double>(net_stats.frames_total),
             "count");
  report.add("net.frames_rejected",
             static_cast<double>(net_stats.frames_rejected), "count");
  report.add("net.commits_acked", static_cast<double>(net_stats.commits_acked),
             "count");
  report.add_tail("net.send_lag_p99_ms", lag_all, 0.99, "ms");
  report.add("net.scrape_p50_ms", median(gen.scrape_ms), "ms",
             gen.scrape_ms.size());
  return report;
}

}  // namespace fsbench
