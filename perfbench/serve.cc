/**
 * @file
 * `perfbench daemon` and `perfbench load`: the served side of a
 * workload.
 *
 * The daemon is serve::Server with a fixed pool width; it prints
 * "ready" once listening and, after SIGTERM drains it, one JSON line
 * with its peak RSS and service counters.
 *
 * The request mix is every (input, config) pair of --inputs x
 * --configs, laid out in blocks in which each pair appears
 * kProbeEvery times, exactly once with "probe": true. The seed
 * shuffles each block, so every seed sends the same requests in a
 * different order.
 *
 * The generator first sends every pair once, plain and closed loop;
 * those replies are the reference exact counts that every later reply,
 * plain or probed, must match. Then, for --seconds:
 *
 *  - with --rate=0, closed-loop batches of two blocks: each of the
 *    kConnections sends its next request when its last reply is in;
 *    a batch is timed from its first send to its last reply;
 *  - with --rate > 0, open loop: request i is due at t0 + i / rate and
 *    goes out on connection i % kConnections, whose sender does not
 *    wait for replies. Latency is timed from when a request was due,
 *    so a stall also delays everything queued behind it, and late_ms
 *    says how far behind schedule the sender itself ran.
 *
 * `perfbench ref` times host-speed reference chunks in a process of
 * its own; perfbench/run.py runs it between the daemon starts that
 * set-up time is taken from.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.hh"
#include "perfbench/modes.hh"
#include "src/driver/config.hh"
#include "src/serve/client.hh"
#include "src/serve/protocol.hh"
#include "src/serve/server.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"

namespace perfbench
{

namespace
{

using namespace distda;

/** A reply not received within this budget counts as timed out. */
constexpr int kReplyTimeoutMs = 20'000;

/** Generator connections; with the daemon's 2 workers, <= 4 threads. */
constexpr std::size_t kConnections = 2;

/** One request in this many asks for a probe report. */
constexpr int kProbeEvery = 4;

/** Reference chunks per `perfbench ref`, after one untimed chunk. */
constexpr int kRefChunks = 2;

/** One request of a phase and what happened to it. */
struct Request
{
    int kind = 0; ///< index into the mix's (input, config) pairs
    bool probe = false;
    std::string line;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point received;
    bool wasSent = false;
    bool replied = false;
    std::string response; ///< reply line, or why there is none
};

/** What perfbench/run.py gets to see of one request. */
struct Outcome
{
    int kind = 0;
    bool probe = false;
    bool ok = false;
    double latencyMs = 0.0; ///< due to reply
    double lateMs = 0.0;    ///< due to send
    double runMs = 0.0;     ///< server-reported run time
    std::size_t bytes = 0;  ///< reply size
};

/** Parsed outcome of one reply. */
struct Reply
{
    bool ok = false;
    std::string error;
    double runMs = 0.0;
    double hits = 0.0;
    double misses = 0.0;
    std::string canonical;
};

Reply
parseReply(const std::string &text)
{
    Reply r;
    sim::JsonValue doc;
    if (!sim::tryParseJson(text, doc, r.error))
        return r;
    const sim::JsonValue *ok = doc.find("ok");
    if (!ok || ok->kind != sim::JsonValue::Kind::Bool || !ok->b) {
        const sim::JsonValue *kind = doc.find("kind");
        const sim::JsonValue *msg = doc.find("error");
        r.error = (kind && kind->isString() ? kind->str : "?") + ": " +
                  (msg && msg->isString() ? msg->str : "error reply");
        return r;
    }
    if (const sim::JsonValue *service = doc.find("service")) {
        auto num = [&](const char *key) {
            const sim::JsonValue *v = service->find(key);
            return v && v->isNumber() ? v->num : 0.0;
        };
        r.runMs = num("run_ms");
        r.hits = num("plan_cache_hits");
        r.misses = num("plan_cache_misses");
    }
    const sim::JsonValue *report = doc.find("report");
    if (!report || !report->isObject()) {
        r.error = "reply without a report";
        return r;
    }
    const Counts counts = countsFromReport(*report);
    if (!counts.validated) {
        r.error = "run failed validation";
        return r;
    }
    r.canonical = counts.canonical;
    r.ok = true;
    return r;
}

/** Sends and receives on one socket; see the file comment. */
class Connection
{
  public:
    bool
    open(const std::string &socket, std::string &err)
    {
        return _client.connectUnix(socket, err);
    }

    /** Closed loop: send, await the reply, repeat. */
    void
    closedLoop(std::vector<Request> &reqs, std::atomic<std::size_t> &next)
    {
        std::string err;
        for (std::size_t i = next++; i < reqs.size(); i = next++) {
            Request &r = reqs[i];
            r.due = r.sent = Clock::now();
            if (!_client.sendLine(r.line, err)) {
                r.response = err;
                return;
            }
            r.wasSent = true;
            if (!_client.recvLine(r.response, err, kReplyTimeoutMs)) {
                r.response = err;
                return;
            }
            r.received = Clock::now();
            r.replied = true;
        }
    }

    /** Open loop over reqs[first], reqs[first + step], ... */
    void
    openLoop(std::vector<Request> &reqs, std::size_t first,
             std::size_t step)
    {
        _sent = 0;
        _senderDone = false;
        std::thread receiver([&] { receive(reqs, first, step); });
        std::string err;
        for (std::size_t i = first; i < reqs.size(); i += step) {
            Request &r = reqs[i];
            std::this_thread::sleep_until(r.due);
            r.sent = Clock::now();
            if (!_client.sendLine(r.line, err)) {
                r.response = err;
                break;
            }
            r.wasSent = true;
            std::lock_guard<std::mutex> lk(_mu);
            ++_sent;
            _cv.notify_one();
        }
        {
            std::lock_guard<std::mutex> lk(_mu);
            _senderDone = true;
            _cv.notify_one();
        }
        receiver.join();
    }

  private:
    void
    receive(std::vector<Request> &reqs, std::size_t first,
            std::size_t step)
    {
        std::size_t k = 0;
        for (std::size_t i = first; i < reqs.size(); i += step, ++k) {
            {
                std::unique_lock<std::mutex> lk(_mu);
                _cv.wait(lk, [&] { return _sent > k || _senderDone; });
                if (_sent <= k)
                    return; // never sent
            }
            Request &r = reqs[i];
            std::string err;
            if (!_client.recvLine(r.response, err, kReplyTimeoutMs)) {
                // The stream is out of step now: the requests still
                // outstanding on it stay unanswered.
                r.response = err;
                return;
            }
            r.received = Clock::now();
            r.replied = true;
        }
    }

    serve::ServeClient _client;
    std::mutex _mu;
    std::condition_variable _cv;
    std::size_t _sent = 0;
    bool _senderDone = false;
};

/** The request mix and the connections that carry it. */
class LoadRun
{
  public:
    explicit LoadRun(const Args &args)
        : _rng(static_cast<std::uint64_t>(args.num("seed", 1))),
          _kinds(parseRuns(args.get("inputs"), args.get("configs")))
    {
        for (std::size_t c = 0; c < kConnections; ++c) {
            _conns.push_back(std::make_unique<Connection>());
            std::string err;
            if (!_conns.back()->open(args.get("socket"), err))
                fatal("connect %s: %s", args.get("socket").c_str(),
                      err.c_str());
        }
        _reference.resize(_kinds.size());
    }

    std::string kindName(std::size_t k) const { return _kinds[k].id(); }
    std::size_t numKinds() const { return _kinds.size(); }
    const std::vector<std::string> &reference() const { return _reference; }

    /** Every kind once, plain, one at a time. */
    void
    warmUp()
    {
        for (std::size_t k = 0; k < _kinds.size(); ++k) {
            std::vector<Request> one(1);
            one[0].kind = static_cast<int>(k);
            closedLoop(one, 1);
        }
    }

    /** Two seeded blocks of the mix; returns the batch wall ms. */
    double
    batch()
    {
        std::vector<Request> reqs = blocks(2);
        const auto t0 = Clock::now();
        closedLoop(reqs, _conns.size());
        return msBetween(t0, Clock::now());
    }

    /** Open loop at @p rate for @p seconds. */
    void
    openLoop(double rate, double seconds)
    {
        const std::size_t block = _kinds.size() *
                                  static_cast<std::size_t>(kProbeEvery);
        const auto n = static_cast<std::size_t>(
            std::max(1.0, std::floor(rate * seconds)));
        std::vector<Request> reqs = blocks((n + block - 1) / block);
        reqs.resize(n);
        prepare(reqs);
        // Start a little ahead so every sender is parked on its first
        // due time before it arrives.
        const auto t0 = Clock::now() + std::chrono::milliseconds(5);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            reqs[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) / rate));
        }
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < _conns.size(); ++c) {
            threads.emplace_back([&, c] {
                _conns[c]->openLoop(reqs, c, _conns.size());
            });
        }
        for (std::thread &t : threads)
            t.join();
        record(reqs);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    double hits = 0.0;
    double misses = 0.0;
    std::vector<Outcome> outcomes;
    std::vector<std::string> lines; ///< every request line sent

  private:
    std::vector<Request>
    blocks(std::size_t count)
    {
        std::vector<Request> out;
        std::uniform_int_distribution<int> pick(0, kProbeEvery - 1);
        for (std::size_t b = 0; b < count; ++b) {
            std::vector<Request> block;
            for (std::size_t k = 0; k < _kinds.size(); ++k) {
                const int probe_at = pick(_rng);
                for (int i = 0; i < kProbeEvery; ++i) {
                    Request r;
                    r.kind = static_cast<int>(k);
                    r.probe = i == probe_at;
                    block.push_back(r);
                }
            }
            std::shuffle(block.begin(), block.end(), _rng);
            out.insert(out.end(), block.begin(), block.end());
        }
        return out;
    }

    void
    prepare(std::vector<Request> &reqs)
    {
        for (Request &r : reqs) {
            const RunSpec &run = _kinds[static_cast<std::size_t>(r.kind)];
            serve::ServeRequest req;
            req.id = _nextId++;
            req.workload = run.workload;
            req.scale = run.scale;
            req.config = run.config;
            req.probe = r.probe;
            r.line = serve::buildRequestLine(req);
        }
    }

    void
    closedLoop(std::vector<Request> &reqs, std::size_t width)
    {
        prepare(reqs);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < width; ++c) {
            threads.emplace_back(
                [&, c] { _conns[c]->closedLoop(reqs, next); });
        }
        for (std::thread &t : threads)
            t.join();
        record(reqs);
    }

    /** Check every reply and keep one Outcome per request. */
    void
    record(std::vector<Request> &reqs)
    {
        for (Request &r : reqs) {
            Reply reply;
            if (r.replied)
                reply = parseReply(r.response);
            else
                reply.error = r.response.empty() ? "not sent" : r.response;
            const auto k = static_cast<std::size_t>(r.kind);
            if (reply.ok) {
                if (_reference[k].empty())
                    _reference[k] = reply.canonical;
                else if (_reference[k] != reply.canonical) {
                    reply.ok = false;
                    reply.error = "exact counts differ from the first reply";
                }
            }
            ++attempted;
            if (!reply.ok) {
                ++failed;
                if (errors.size() < 8)
                    errors.push_back(r.line + " -> " + reply.error);
            }
            hits += reply.hits;
            misses += reply.misses;

            Outcome o;
            o.kind = r.kind;
            o.probe = r.probe;
            o.ok = reply.ok;
            o.latencyMs = r.replied ? msBetween(r.due, r.received) : 0.0;
            o.lateMs = r.wasSent ? msBetween(r.due, r.sent) : 0.0;
            o.runMs = reply.runMs;
            o.bytes = r.response.size();
            outcomes.push_back(o);
            lines.push_back(std::move(r.line));
        }
    }

    std::mt19937_64 _rng;
    std::vector<RunSpec> _kinds;
    std::vector<std::unique_ptr<Connection>> _conns;
    std::vector<std::string> _reference; ///< canonical counts per kind
    std::uint64_t _nextId = 1;
};

} // namespace

int
runDaemon(const Args &args)
{
    setInformEnabled(false);
    setWarnEnabled(false);
    serve::ServeOptions opts;
    opts.socketPath = args.get("socket");
    opts.jobs = static_cast<int>(args.num("jobs", 2));
    serve::Server server(opts);
    server.start();
    serve::Server::installSignalHandlers(server);
    std::printf("ready\n");
    std::fflush(stdout);
    server.waitUntilStopRequested();
    server.stop();
    const serve::Server::Stats s = server.stats();
    std::printf("{\"peak_rss_mb\": %.6f, \"served\": %llu, "
                "\"errors\": %llu, \"busy\": %llu}\n",
                peakRssMb(), static_cast<unsigned long long>(s.served),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.busyRejected));
    return 0;
}

int
runReference(const Args &)
{
    referenceMs(); // fault in the heap the chunks reuse
    std::printf("{\"ref_ms\": [");
    for (int i = 0; i < kRefChunks; ++i)
        std::printf("%s%.6f", i ? ", " : "", referenceMs());
    std::printf("]}\n");
    return 0;
}

int
runLoad(const Args &args)
{
    std::signal(SIGPIPE, SIG_IGN);
    const double seconds = args.num("seconds", 10.0);
    const double rate = args.num("rate", 0.0);

    LoadRun run(args);
    run.warmUp();
    run.outcomes.clear(); // warm-up replies are references, not samples

    // Reference chunks run between batches, while the daemon idles.
    std::vector<double> batch_ms, ref_ms;
    if (rate > 0.0) {
        run.openLoop(rate, seconds);
    } else {
        const auto start = Clock::now();
        double longest = 0.0;
        while (batch_ms.size() < 3 ||
               msBetween(start, Clock::now()) + longest < 1000.0 * seconds) {
            for (int i = 0; i < 4; ++i)
                ref_ms.push_back(referenceMs());
            batch_ms.push_back(run.batch());
            longest = std::max(longest, batch_ms.back());
        }
    }

    // The daemon parses every request line with parseServeRequest;
    // time it here on the same lines.
    std::vector<double> parse_us;
    for (const std::string &line : run.lines) {
        serve::ServeRequest req;
        std::string err;
        const auto t0 = Clock::now();
        serve::parseServeRequest(line, req, err);
        parse_us.push_back(1000.0 * msBetween(t0, Clock::now()));
    }
    std::nth_element(parse_us.begin(),
                     parse_us.begin() + parse_us.size() / 2,
                     parse_us.end());

    sim::JsonWriter w;
    w.beginObject();
    w.key("attempted").value(run.attempted);
    w.key("failed").value(run.failed);
    w.key("errors").beginArray();
    for (const std::string &e : run.errors)
        w.value(e);
    w.endArray();
    w.key("plan_hits").value(run.hits);
    w.key("plan_misses").value(run.misses);
    w.key("parse_us").value(parse_us.empty() ? 0.0
                                             : parse_us[parse_us.size() / 2]);
    w.key("batch_ms").beginArray();
    for (double ms : batch_ms)
        w.value(ms);
    w.endArray();
    w.key("ref_ms").beginArray();
    for (double ms : ref_ms)
        w.value(ms);
    w.endArray();
    w.key("kinds").beginArray();
    for (std::size_t k = 0; k < run.numKinds(); ++k) {
        w.beginObject();
        w.key("id").value(run.kindName(k));
        w.key("digest").value(digest(run.reference()[k]));
        w.endObject();
    }
    w.endArray();
    // One row per request: kind, probe, ok, latency from due, late,
    // server run_ms, reply bytes.
    w.key("requests").beginArray();
    for (const Outcome &o : run.outcomes) {
        w.beginArray();
        w.value(o.kind);
        w.value(o.probe ? 1 : 0);
        w.value(o.ok ? 1 : 0);
        w.value(o.latencyMs);
        w.value(o.lateMs);
        w.value(o.runMs);
        w.value(static_cast<std::uint64_t>(o.bytes));
        w.endArray();
    }
    w.endArray();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace perfbench
