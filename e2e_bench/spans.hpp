/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The driver wraps each call it makes into a library's public API in a
 * Span named "<layer>.<call>". A span records its name, host start and
 * end, the span that caused it and the job it belongs to. Spans stay in
 * memory while the run measures and are written out once at exit, so
 * the only in-run cost is two clock reads and one locked append.
 *
 * A null SpanLog turns every Span into a no-op: untraced runs pass
 * nullptr and pay one branch per call site.
 */

#ifndef E2E_BENCH_SPANS_HPP
#define E2E_BENCH_SPANS_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/** Job id of spans outside any job (set-up, closing). */
inline constexpr std::int64_t kNoJob = -1;
/** Parent id meaning "the innermost span open on this thread". */
inline constexpr std::int64_t kInheritParent = -2;
/** Parent id of a root span. */
inline constexpr std::int64_t kNoParent = -1;

struct SpanRecord
{
    const char *name = nullptr; ///< "<layer>.<call>", a string literal
    std::int64_t startNs = 0;   ///< steady_clock, relative to the log
    std::int64_t endNs = 0;
    std::int64_t id = 0;
    std::int64_t parent = kNoParent;
    std::int64_t job = kNoJob;
    std::uint32_t thread = 0;
};

class SpanLog
{
  public:
    SpanLog() : origin_(std::chrono::steady_clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    std::int64_t nextId() { return nextId_.fetch_add(1); }

    void
    append(const SpanRecord &r)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(r);
    }

    /** Copy of the spans closed so far (call once the run is idle). */
    std::vector<SpanRecord>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

    /** Small dense id for the calling thread (Chrome trace tid). */
    static std::uint32_t
    threadIndex()
    {
        static std::atomic<std::uint32_t> next{0};
        thread_local const std::uint32_t mine = next.fetch_add(1);
        return mine;
    }

    /** Stack of span ids open on the calling thread. */
    static std::vector<std::int64_t> &
    openStack()
    {
        thread_local std::vector<std::int64_t> stack;
        return stack;
    }

  private:
    std::chrono::steady_clock::time_point origin_;
    std::atomic<std::int64_t> nextId_{0};
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/** RAII span; inert when constructed with a null log. */
class Span
{
  public:
    Span(SpanLog *log, const char *name, std::int64_t job,
         std::int64_t parent = kInheritParent)
        : log_(log)
    {
        if (!log_)
            return;
        auto &stack = SpanLog::openStack();
        rec_.name = name;
        rec_.id = log_->nextId();
        rec_.job = job;
        rec_.thread = SpanLog::threadIndex();
        if (parent == kInheritParent)
            rec_.parent = stack.empty() ? kNoParent : stack.back();
        else
            rec_.parent = parent;
        stack.push_back(rec_.id);
        rec_.startNs = log_->nowNs();
    }

    ~Span()
    {
        if (!log_)
            return;
        rec_.endNs = log_->nowNs();
        SpanLog::openStack().pop_back();
        log_->append(rec_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (kNoParent when inert), for cross-thread children. */
    std::int64_t id() const { return log_ ? rec_.id : kNoParent; }

  private:
    SpanLog *log_;
    SpanRecord rec_;
};

/** Layer of a span name: the text before the first '.'. */
inline std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

/** Summed inclusive seconds per span name. */
inline std::map<std::string, double>
inclusiveSeconds(const std::vector<SpanRecord> &spans)
{
    std::map<std::string, double> out;
    for (const SpanRecord &s : spans)
        out[s.name] += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    return out;
}

/**
 * Self seconds per layer: each span's duration minus the part of its
 * interval its children cover. Children may run in parallel on other
 * threads (sweep trials), so coverage is the union of their intervals,
 * not their sum.
 */
inline std::map<std::string, double>
selfSecondsByLayer(const std::vector<SpanRecord> &spans)
{
    std::map<std::int64_t, std::vector<std::pair<std::int64_t,
                                                 std::int64_t>>>
        children;
    for (const SpanRecord &s : spans)
        if (s.parent != kNoParent)
            children[s.parent].emplace_back(s.startNs, s.endNs);

    std::map<std::string, double> out;
    for (const SpanRecord &s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t curStart = 0, curEnd = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startNs);
                b = std::min(b, s.endNs);
                if (b <= a)
                    continue;
                if (a > curEnd) {
                    if (curEnd > curStart)
                        covered += curEnd - curStart;
                    curStart = a;
                    curEnd = b;
                } else {
                    curEnd = std::max(curEnd, b);
                }
            }
            if (curEnd > curStart)
                covered += curEnd - curStart;
        }
        out[layerOf(s.name)] +=
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return out;
}

/**
 * Write the spans as a Chrome trace-event document (open it in
 * Perfetto or chrome://tracing). Returns false on I/O failure.
 */
inline bool
writeChromeJson(const std::vector<SpanRecord> &spans,
                const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const SpanRecord &s : spans) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%lld,\"parent\":%lld,"
                     "\"job\":%lld}}",
                     first ? "" : ",", s.name, layerOf(s.name).c_str(),
                     s.thread, static_cast<double>(s.startNs) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3,
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.job));
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace e2e

#endif // E2E_BENCH_SPANS_HPP
